package harness

import (
	"fmt"
	"math"
	"strings"

	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

// Saturation finder: walk a geometric ladder of offered load for one
// (scenario, backend), scoring each rung's SLO attainment and pooled
// FCT tail from metered sweep runs, then bisect the bracket where the
// score first crosses the threshold. The highest load that still
// meets the criteria is the backend's "max sustainable load" — the
// knee the paper's goodput-vs-load curves bend at. Every probe is a
// deterministic metered sweep (fixed base seed, order-fixed
// aggregation), so the knee is a pure function of the options: re-runs
// and different parallelism levels reproduce it byte for byte.

// SaturationScenarios lists the scenarios FindSaturation can drive:
// the sweep scenarios with an offered-load axis (Loadable). The chaos
// scenario is not one of them: its degradation axis is the fault plan.
func SaturationScenarios() []string {
	return scenarioNames(func(i int) bool {
		_, ok := sweepScenarios[i].build(SweepParams{}).(Loadable)
		return ok
	})
}

// SaturationOptions parametrises one knee search.
type SaturationOptions struct {
	// Scenario is one of SaturationScenarios.
	Scenario string
	// Params sizes the scenario template, whose load knob
	// (Loadable.ScaleLoad) is scaled per probe.
	Params SweepParams
	// SLO scores every flow; a flow that misses it (or never
	// completes) counts against attainment.
	SLO metrics.SLO
	// Target is the required SLO attainment (default 0.99).
	Target float64
	// P99Max, when positive, additionally requires the pooled FCT P99
	// (worst tenant for storage) to stay at or below it, in seconds.
	P99Max float64
	// LoadMin and LoadMax bound the ladder as multipliers of the
	// template's knob (defaults 0.25 and 4).
	LoadMin, LoadMax float64
	// Rungs is the geometric ladder size (default 8, min 2).
	Rungs int
	// Refine is the bisection step count after the ladder brackets the
	// knee (default 6).
	Refine int
	// Seeds is the repetition count per probe (default 3).
	Seeds int
	// BaseSeed anchors sub-seed derivation (default 1).
	BaseSeed int64
	// Parallelism caps concurrent repetitions inside a probe; the knee
	// does not depend on it.
	Parallelism int
	// KeepHists retains each probe's merged histogram aggregates on
	// its Rung (the poly load -hist-out dump).
	KeepHists bool
}

// DefaultSaturationOptions returns a test-sized knee search for one
// scenario.
func DefaultSaturationOptions(scenario string) SaturationOptions {
	return SaturationOptions{
		Scenario: scenario,
		Params:   DefaultSweepParams(),
		Target:   0.99,
		LoadMin:  0.25,
		LoadMax:  4,
		Rungs:    8,
		Refine:   6,
		Seeds:    3,
		BaseSeed: 1,
	}
}

// Validate surfaces impossible searches, the scenario's options among
// them, before anything runs. Start from DefaultSaturationOptions; the
// zero value fails here on every numeric knob (Refine excepted — 0
// legitimately means ladder-only).
func (o SaturationOptions) Validate() error {
	template, err := o.template()
	if err != nil {
		return err
	}
	if err := template.Validate(); err != nil {
		return err
	}
	if o.Target <= 0 || o.Target > 1 {
		return fmt.Errorf("saturation: target attainment must be in (0, 1], got %g", o.Target)
	}
	if o.P99Max < 0 {
		return fmt.Errorf("saturation: p99 ceiling must be >= 0, got %g", o.P99Max)
	}
	if err := o.SLO.Validate(); err != nil {
		return fmt.Errorf("saturation: %w", err)
	}
	if o.LoadMin <= 0 || o.LoadMax <= o.LoadMin {
		return fmt.Errorf("saturation: need 0 < LoadMin < LoadMax, got [%g, %g]", o.LoadMin, o.LoadMax)
	}
	if o.Rungs < 2 {
		return fmt.Errorf("saturation: need >= 2 ladder rungs, got %d", o.Rungs)
	}
	if o.Refine < 0 {
		return fmt.Errorf("saturation: refine steps must be >= 0, got %d", o.Refine)
	}
	if o.Seeds < 1 {
		return fmt.Errorf("saturation: need >= 1 seed, got %d", o.Seeds)
	}
	return nil
}

// template sizes the named scenario from Params.
func (o SaturationOptions) template() (Loadable, error) {
	for _, e := range sweepScenarios {
		if e.name != o.Scenario {
			continue
		}
		if ld, ok := e.build(o.Params).(Loadable); ok {
			return ld, nil
		}
	}
	return nil, fmt.Errorf("saturation: unknown scenario %q (have %v)", o.Scenario, SaturationScenarios())
}

// Rung is one probed load level.
type Rung struct {
	// Load is the knob multiplier relative to the template.
	Load float64 `json:"load"`
	// Knob is the effective knob value after scaling (and, for integer
	// knobs, rounding) — equal knobs mean equal runs, so the finder
	// memoises on it.
	Knob float64 `json:"knob"`
	// Attainment is the mean SLO attainment across the probe's seeds.
	Attainment float64 `json:"slo_attainment"`
	// FCTP99 is the pooled FCT P99 in seconds (worst tenant for
	// storage), from the merged histograms.
	FCTP99 float64 `json:"fct_p99_s"`
	// GoodputGbps is the scenario's headline goodput at this load.
	GoodputGbps float64 `json:"goodput_gbps"`
	// OK reports whether the rung met the target (and the P99 ceiling,
	// when set).
	OK bool `json:"ok"`
	// Hists holds the probe's merged histogram aggregates when
	// SaturationOptions.KeepHists is set.
	Hists []sweep.HistAggregate `json:"hists,omitempty"`
	// Replay is the poly sweep command line that reruns the probe.
	Replay string `json:"-"`
}

// SaturationResult is one completed knee search.
type SaturationResult struct {
	Scenario string `json:"scenario"`
	Backend  string `json:"backend"`
	// LoadKnob names what Load multiplies (load_factor, senders,
	// bytes_per_pair).
	LoadKnob string  `json:"load_knob"`
	Target   float64 `json:"target"`
	P99Max   float64 `json:"p99_max_s,omitempty"`
	// Ladder is the initial geometric ladder, ascending load.
	Ladder []Rung `json:"ladder"`
	// Probes is every distinct probe in probe order (ladder first,
	// then refinement).
	Probes []Rung `json:"probes"`
	// Knee is the highest probed load that met the criteria; nil when
	// even LoadMin missed.
	Knee *Rung `json:"knee,omitempty"`
	// Censored is "" when the ladder bracketed the knee, "below-min"
	// when every rung failed, "above-max" when every rung passed (the
	// knee lies outside [LoadMin, LoadMax]).
	Censored string `json:"censored,omitempty"`
}

// worstFCTP99 reads the pooled FCT P99 from a metered cell: the
// maximum over every *fct_s histogram (plain runs have one; storage
// has a GET and a PUT tenant).
func worstFCTP99(c sweep.CellResult) float64 {
	worst := math.NaN()
	for _, a := range c.Hists {
		if !strings.HasSuffix(a.Metric, "fct_s") {
			continue
		}
		if math.IsNaN(worst) || a.P99 > worst {
			worst = a.P99
		}
	}
	return worst
}

// FindSaturation walks the ladder and bisects to the knee for one
// (scenario, backend). Every probe is a full metered sweep over the
// option's seeds; probes at equal effective knob values run once.
func FindSaturation(o SaturationOptions, backend store.BackendKind) (SaturationResult, error) {
	if err := o.Validate(); err != nil {
		return SaturationResult{}, err
	}
	template, _ := o.template() // Validate vouched for it
	res := SaturationResult{
		Scenario: o.Scenario,
		Backend:  backend.String(),
		LoadKnob: template.LoadKnob(),
		Target:   o.Target,
		P99Max:   o.P99Max,
	}
	params := o.Params
	params.SLO = &o.SLO
	memo := map[float64]Rung{}
	probe := func(load float64) (Rung, error) {
		scaled, knob := template.ScaleLoad(load)
		if r, ok := memo[knob]; ok {
			r.Load = load
			return r, nil
		}
		scaledParams := params
		scaledParams.set(scaled)
		cells, err := SweepCells(o.Scenario, []store.BackendKind{backend}, scaledParams)
		if err != nil {
			return Rung{}, err
		}
		sr, err := (sweep.Matrix{
			Cells: cells, Seeds: o.Seeds,
			BaseSeed: o.BaseSeed, Parallelism: o.Parallelism,
		}).Run()
		if err != nil {
			return Rung{}, err
		}
		c := sr.Cells[0]
		if len(c.Errors) > 0 {
			return Rung{}, fmt.Errorf("saturation: probe at load %g failed: %s", load, c.Errors[0])
		}
		att, _ := c.Metric("slo_attainment")
		goodput, _ := c.Metric(template.Headline())
		r := Rung{
			Load:        load,
			Knob:        knob,
			Attainment:  att.Mean,
			FCTP99:      worstFCTP99(c),
			GoodputGbps: goodput.Mean,
			Replay:      c.Replay,
		}
		r.OK = r.Attainment >= o.Target && (o.P99Max <= 0 || r.FCTP99 <= o.P99Max)
		if o.KeepHists {
			r.Hists = c.Hists
		}
		memo[knob] = r
		res.Probes = append(res.Probes, r)
		return r, nil
	}

	// Geometric ladder from LoadMin to LoadMax.
	ratio := math.Pow(o.LoadMax/o.LoadMin, 1/float64(o.Rungs-1))
	kneeIdx := -1  // highest OK rung seen so far
	breakIdx := -1 // first failing rung above it
	for i := 0; i < o.Rungs; i++ {
		load := o.LoadMin * math.Pow(ratio, float64(i))
		if i == o.Rungs-1 {
			load = o.LoadMax // no accumulated rounding at the top rung
		}
		r, err := probe(load)
		if err != nil {
			return SaturationResult{}, err
		}
		res.Ladder = append(res.Ladder, r)
		if r.OK {
			kneeIdx = i
			breakIdx = -1
		} else if breakIdx < 0 {
			breakIdx = i
		}
	}

	switch {
	case kneeIdx < 0:
		res.Censored = "below-min"
		return res, nil
	case breakIdx < 0:
		res.Censored = "above-max"
		knee := res.Ladder[len(res.Ladder)-1]
		res.Knee = &knee
		return res, nil
	}

	// Bisect the bracket geometrically. Integer knobs can collapse the
	// midpoint onto an endpoint; the bracket cannot shrink further in
	// knob space, so stop early.
	knee := res.Ladder[kneeIdx]
	lo, hi := res.Ladder[kneeIdx], res.Ladder[breakIdx]
	for i := 0; i < o.Refine; i++ {
		mid := math.Sqrt(lo.Load * hi.Load)
		r, err := probe(mid)
		if err != nil {
			return SaturationResult{}, err
		}
		if r.Knob == lo.Knob || r.Knob == hi.Knob {
			break
		}
		if r.OK {
			lo = r
			if r.Load > knee.Load {
				knee = r
			}
		} else {
			hi = r
		}
	}
	res.Knee = &knee
	return res, nil
}
