// Package metrics is PolyMeter: a deterministic, allocation-free,
// mergeable metrics layer for the simulation stack. It provides
//
//   - log-linear HDR-style Histograms (FCT, per-flow goodput, queue
//     depth, stall duration) whose quantiles carry a bounded relative
//     error (RelError) and whose state forms a commutative monoid, so
//     merging snapshots in any order yields byte-identical results;
//   - Counters and Gauges for scalar facts (flows completed, faults
//     injected, peak open sessions);
//   - a Registry that interns (scenario, backend, tenant) label sets
//     and hands out one instrument per (name, labels) pair.
//
// Like PolyScope (internal/telemetry), the whole layer hangs off
// nil-checked pointers: every recording site is a method call whose
// receiver is nil when metering is disabled, so the disabled path is a
// single predictable branch and a metered run is bit-identical to an
// unmetered one. Instruments consume no randomness and no wall clock;
// a metered run's histograms are byte-identical for a given seed at
// any sweep parallelism.
package metrics

import (
	"fmt"
	"maps"
	"slices"
)

// Labels identifies one instrument instance: which scenario and
// backend produced the samples, and (for multi-tenant workloads like
// the storage cluster's GET/PUT split) which tenant. Empty fields are
// simply unused axes.
type Labels struct {
	Scenario string `json:"scenario,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
}

// String renders the label set as "scenario/backend/tenant" with empty
// trailing axes trimmed.
func (l Labels) String() string {
	s := l.Scenario + "/" + l.Backend
	if l.Tenant != "" {
		s += "/" + l.Tenant
	}
	return s
}

// Counter is a monotonic (or at least merge-by-sum) integer metric.
// All methods are safe on a nil receiver and do nothing — a nil
// *Counter IS the disabled state.
type Counter struct {
	n int64
}

// Add adds d to the counter. On a nil receiver (metering disabled) it
// is a single branch and no work.
//
//polyvet:noalloc called per simulated event; one field add
//polyvet:inline the disabled-metering case must cost one branch, not a call
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n += d
}

// Value returns the counter's current value (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Merge adds o's count into c (merge of disjoint runs = sum).
//
//polyvet:noalloc merge runs once per (cell, repetition); one field add
func (c *Counter) Merge(o *Counter) {
	if c == nil || o == nil {
		return
	}
	c.n += o.n
}

// Gauge is a last/peak-value scalar metric. Merging takes the maximum,
// which is associative and commutative, so cross-run gauge merges are
// order-independent (a gauge therefore reports the peak across merged
// runs, not the last write). All methods are safe on a nil receiver.
type Gauge struct {
	v   float64
	set bool
}

// Set records v if it exceeds the current value (or if nothing was
// recorded yet). On a nil receiver it is a single branch and no work.
//
//polyvet:noalloc called per simulated event; two fields written
//polyvet:inline the disabled-metering case must cost one branch, not a call
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if !g.set || v > g.v {
		g.v = v
	}
	g.set = true
}

// Value returns the gauge's value (0 on nil or when never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Merge folds o into g (maximum of the two peaks).
//
//polyvet:noalloc merge runs once per (cell, repetition)
func (g *Gauge) Merge(o *Gauge) {
	if g == nil || o == nil || !o.set {
		return
	}
	g.Set(o.v)
}

// instrKey identifies one instrument: metric name plus interned label
// ID.
type instrKey struct {
	name  string
	label int
}

// Registry hands out instruments keyed by (name, labels), interning
// the label sets so repeated lookups cost one map probe and no
// allocation. A Registry is built per run (single goroutine) and read
// after the run completes; it is not safe for concurrent mutation.
// All methods are safe on a nil receiver and return nil instruments,
// so a nil *Registry IS the disabled state and the nil chains through
// to every recording site.
type Registry struct {
	labels   []Labels
	labelIDs map[Labels]int
	hists    map[instrKey]*Histogram
	counters map[instrKey]*Counter
	gauges   map[instrKey]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		labelIDs: map[Labels]int{},
		hists:    map[instrKey]*Histogram{},
		counters: map[instrKey]*Counter{},
		gauges:   map[instrKey]*Gauge{},
	}
}

// labelID interns l and returns its dense ID.
func (r *Registry) labelID(l Labels) int {
	if id, ok := r.labelIDs[l]; ok {
		return id
	}
	id := len(r.labels)
	r.labels = append(r.labels, l)
	r.labelIDs[l] = id
	return id
}

// Histogram returns the histogram registered under (name, l), creating
// it on first use. Nil registry → nil histogram (disabled).
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	k := instrKey{name, r.labelID(l)}
	h := r.hists[k]
	if h == nil {
		h = NewHistogram()
		r.hists[k] = h
	}
	return h
}

// Counter returns the counter registered under (name, l), creating it
// on first use. Nil registry → nil counter (disabled).
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	k := instrKey{name, r.labelID(l)}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge registered under (name, l), creating it on
// first use. Nil registry → nil gauge (disabled).
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return nil
	}
	k := instrKey{name, r.labelID(l)}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// sortedKeys returns m's keys sorted by (name, label ID) — the
// deterministic export order.
func sortedKeys[V any](m map[instrKey]V) []instrKey {
	ks := slices.Collect(maps.Keys(m))
	slices.SortFunc(ks, func(a, b instrKey) int {
		if a.name != b.name {
			if a.name < b.name {
				return -1
			}
			return 1
		}
		return a.label - b.label
	})
	return ks
}

// EachHistogram visits every registered histogram sorted by (name,
// label interning order). No-op on nil.
func (r *Registry) EachHistogram(fn func(name string, l Labels, h *Histogram)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.hists) {
		fn(k.name, r.labels[k.label], r.hists[k])
	}
}

// EachCounter visits every registered counter in deterministic order.
func (r *Registry) EachCounter(fn func(name string, l Labels, c *Counter)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.counters) {
		fn(k.name, r.labels[k.label], r.counters[k])
	}
}

// EachGauge visits every registered gauge in deterministic order.
func (r *Registry) EachGauge(fn func(name string, l Labels, g *Gauge)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.gauges) {
		fn(k.name, r.labels[k.label], r.gauges[k])
	}
}

// SLO is a per-flow service-level objective: complete within
// FCTDeadline seconds and/or sustain at least GoodputFloor Gbps. A
// zero field disables that criterion; the zero value disables both.
// Attainment is the fraction of flows meeting every enabled criterion.
type SLO struct {
	// FCTDeadline is the flow-completion deadline in seconds (0 = off).
	FCTDeadline float64 `json:"fct_deadline_s,omitempty"`
	// GoodputFloor is the per-flow goodput floor in Gbps (0 = off).
	GoodputFloor float64 `json:"goodput_floor_gbps,omitempty"`
}

// Enabled reports whether any criterion is set.
func (s SLO) Enabled() bool { return s.FCTDeadline > 0 || s.GoodputFloor > 0 }

// Validate rejects a negative deadline or floor.
func (s SLO) Validate() error {
	if s.FCTDeadline < 0 || s.GoodputFloor < 0 {
		return fmt.Errorf("SLO deadline and goodput floor must be >= 0, got %gs and %g Gbps", s.FCTDeadline, s.GoodputFloor)
	}
	return nil
}

// MetFCT reports whether a flow-completion time meets the deadline.
// NaN (a stalled flow that never completed) always misses.
func (s SLO) MetFCT(fct float64) bool {
	if s.FCTDeadline <= 0 {
		return fct == fct // only a NaN FCT can miss a disabled deadline
	}
	return fct <= s.FCTDeadline
}

// MetGoodput reports whether a per-flow goodput meets the floor. NaN
// always misses.
func (s SLO) MetGoodput(g float64) bool {
	if s.GoodputFloor <= 0 {
		return g == g
	}
	return g >= s.GoodputFloor
}
