package harness

import (
	"math"

	"polyraptor/internal/metrics"
	"polyraptor/internal/sweep"
)

// PolyMeter wiring. A metered run owns a metrics.Registry built for
// that run alone (single goroutine, nothing shared across sweep
// workers); Run wraps it with the run's label set and the SLO under
// test. The zero meter (nil registry) is the disabled state: every
// instrument the registry hands out is nil and every recording site
// degenerates to a single branch, so an unmetered run is bit-identical
// to one that never heard of PolyMeter.

// meter bundles one run's PolyMeter attachments.
type meter struct {
	reg *metrics.Registry
	l   metrics.Labels
	slo metrics.SLO
}

// offered declares how many flows the run offers. Attainment divides
// by this gauge, so a flow that stalls and never completes still
// counts against the SLO.
func (mt meter) offered(n int) {
	mt.reg.Gauge("offered_flows", mt.l).Set(float64(n))
}

// flow records one completed flow: its completion time and goodput
// enter the histograms, and the slo_met counter advances if the flow
// met every enabled SLO criterion.
func (mt meter) flow(fct, goodputGbps float64) {
	mt.reg.Histogram("fct_s", mt.l).Record(fct)
	mt.reg.Histogram("goodput_gbps", mt.l).Record(goodputGbps)
	if mt.slo.MetFCT(fct) && mt.slo.MetGoodput(goodputGbps) {
		mt.reg.Counter("slo_met", mt.l).Add(1)
	}
}

// registryAttainment reads a run's SLO attainment: met flows over
// offered flows, summed across every label set (the storage scenario
// meters its GET and PUT sides as separate tenants). 0 when nothing
// was offered.
func registryAttainment(reg *metrics.Registry) float64 {
	var met, offered float64
	reg.EachCounter(func(name string, _ metrics.Labels, c *metrics.Counter) {
		if name == "slo_met" {
			met += float64(c.Value())
		}
	})
	reg.EachGauge(func(name string, _ metrics.Labels, g *metrics.Gauge) {
		if name == "offered_flows" {
			offered += g.Value()
		}
	})
	if offered <= 0 {
		return 0
	}
	return met / offered
}

// tenant returns a meter for a sub-workload of the run (the storage
// cluster's GET and PUT sides), sharing the registry and SLO.
func (mt meter) tenant(name string) meter {
	t := mt
	t.l.Tenant = name
	return t
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

// registryHists flattens a run registry into the sweep's Hists map.
// Tenant-labelled histograms get a "tenant_" name prefix; empty
// histograms (e.g. stall_s in a run with no stalls) are dropped. The
// iteration order is deterministic but irrelevant: histogram merge is
// commutative.
func registryHists(reg *metrics.Registry) sweep.Hists {
	if reg == nil {
		return nil
	}
	hs := sweep.Hists{}
	reg.EachHistogram(func(name string, l metrics.Labels, h *metrics.Histogram) {
		if h.Count() == 0 {
			return
		}
		if l.Tenant != "" {
			name = l.Tenant + "_" + name
		}
		hs[name] = h
	})
	if len(hs) == 0 {
		return nil
	}
	return hs
}
