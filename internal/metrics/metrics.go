// Package metrics is PolyMeter's vocabulary: a deterministic,
// allocation-free, mergeable log-linear Histogram (FCT, per-flow
// goodput, queue depth, stall duration) whose quantiles carry a bounded
// relative error (RelError) and whose state forms a commutative monoid,
// so merging snapshots in any order yields byte-identical results; and
// the per-flow SLO a metered run scores its flows against.
//
// Like PolyScope (internal/telemetry), a histogram hangs off a
// nil-checked pointer: every recording site is a method call whose
// receiver is nil when metering is disabled, so the disabled path is a
// single predictable branch and a metered run is bit-identical to an
// unmetered one. Histograms consume no randomness and no wall clock; a
// metered run's histograms are byte-identical for a given seed at any
// sweep parallelism.
package metrics

import "fmt"

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
