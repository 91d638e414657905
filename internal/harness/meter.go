package harness

import (
	"math"

	"polyraptor/internal/metrics"
	"polyraptor/internal/sweep"
)

// Meter is one run's PolyMeter: the per-flow FCT and goodput
// histograms, fabric queue depth and Polyraptor stall durations,
// keyed by name, plus the flows offered and the flows that met the
// SLO. A Meter belongs to one run (single goroutine, nothing shared
// across sweep workers). A nil *Meter is the disabled state: every
// histogram it hands out is nil and every recording site degenerates
// to a single branch, so an unmetered run is bit-identical to one that
// never heard of PolyMeter.
type Meter struct {
	// SLO scores every metered flow; the zero SLO scores completion
	// only (a flow that never completed still misses).
	SLO metrics.SLO

	hists        sweep.Hists
	met, offered int
}

// hist returns the named histogram, creating it on first use. Nil on
// a nil Meter.
func (m *Meter) hist(name string) *metrics.Histogram {
	if m == nil {
		return nil
	}
	h := m.hists[name]
	if h == nil {
		if m.hists == nil {
			m.hists = sweep.Hists{}
		}
		h = metrics.NewHistogram()
		m.hists[name] = h
	}
	return h
}

// offer adds n flows to the offered count. Attainment divides by it,
// so a flow that stalls and never completes still counts against the
// SLO.
func (m *Meter) offer(n int) {
	if m != nil {
		m.offered += n
	}
}

// flow meters one completed flow: its completion time and goodput
// enter the tenant+"fct_s" and tenant+"goodput_gbps" histograms, and
// it counts as met if it meets every enabled SLO criterion. tenant is
// "" except in the storage scenario, which meters its GET and PUT
// sides apart as "get_" and "put_".
func (m *Meter) flow(tenant string, fct, goodputGbps float64) {
	if m == nil {
		return
	}
	m.hist(tenant + "fct_s").Record(fct)
	m.hist(tenant + "goodput_gbps").Record(goodputGbps)
	if m.SLO.MetFCT(fct) && m.SLO.MetGoodput(goodputGbps) {
		m.met++
	}
}

// Attainment is the fraction of offered flows that met the SLO, 0 when
// nothing was offered.
func (m *Meter) Attainment() float64 {
	if m == nil || m.offered <= 0 {
		return 0
	}
	return float64(m.met) / float64(m.offered)
}

// Hists returns the run's non-empty histograms (stall_s stays empty in
// a run with no stalls), nil when there are none.
func (m *Meter) Hists() sweep.Hists {
	if m == nil {
		return nil
	}
	var hs sweep.Hists
	//polyvet:orderfree each name is copied into its own key; the sweep sorts names before output
	for name, h := range m.hists {
		if h.Count() == 0 {
			continue
		}
		if hs == nil {
			hs = sweep.Hists{}
		}
		hs[name] = h
	}
	return hs
}

// perFlowGbps is one flow's goodput: its bytes over its own
// completion time (all harness flows start at t=0).
func perFlowGbps(bytes int64, fctSeconds float64) float64 {
	if fctSeconds <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e9 / fctSeconds
}

// fctFromGoodput inverts perFlowGbps for the scenarios that report
// per-session goodput rather than raw completion times (Figure 1).
// NaN for a non-positive goodput, so the flow misses any SLO.
func fctFromGoodput(bytes int64, gbps float64) float64 {
	if gbps <= 0 {
		return math.NaN()
	}
	return float64(bytes) * 8 / 1e9 / gbps
}
