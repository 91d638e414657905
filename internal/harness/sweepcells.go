package harness

import (
	"fmt"
	"strconv"

	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

// Sweep cells: any Scenario behind the one sweep.Runner interface, so
// cmd/polysweep (and the -runs flags of the other CLIs) can execute
// any backend x scenario x seed matrix on the worker pool.

// SweepParams sizes the canned sweep scenarios. The zero value is not
// useful; start from DefaultSweepParams.
type SweepParams struct {
	// FatTreeK is the fabric arity for the figure scenarios.
	FatTreeK int
	// Bytes is the object size (per sender for incast).
	Bytes int64
	// Replicas is the replica/sender count for fig1a/fig1b.
	Replicas int
	// Senders is the incast fan-in.
	Senders int
	// Sessions is the fig1a/fig1b session count.
	Sessions int
	// LoadFactor is the fig1a/fig1b offered-load fraction.
	LoadFactor float64
	// Mappers and Reducers size the shuffle scenario's transfer matrix
	// (Bytes is the mean partition size per pair).
	Mappers, Reducers int
	// ShuffleSkew is the Zipf skew of partition sizes across reducers.
	ShuffleSkew float64
	// Straggler scales one mapper's partitions (0 disables, >= 1
	// scales).
	Straggler float64
	// Store is the storage-cluster template; its Backend and Seed are
	// overridden per run.
	Store store.Config
	// Chaos is the fault-injection template; its Fault.Seed is
	// overridden per run.
	Chaos ChaosOptions

	// Meter attaches a PolyMeter registry to every run: per-flow FCT
	// and goodput histograms (plus fabric queue depth and Polyraptor
	// stall durations where the scenario drives the fabric directly),
	// merged across repetitions into the cell's pooled distributions,
	// and an "slo_attainment" metric. Metering never changes run
	// results: a metered run's metrics are bit-identical to an
	// unmetered run of the same seed.
	Meter bool
	// SLO, when non-nil, scores every metered flow against the spec;
	// slo_attainment is the fraction of offered flows that completed
	// within it. Implies Meter. With no SLO, attainment degenerates to
	// the completion rate (every completed flow trivially meets the
	// empty spec; stalled or skipped flows still miss).
	SLO *metrics.SLO

	// Trace, when non-nil, attaches a PolyScope flight recorder and
	// timeline probes to every run of the scenarios that support
	// tracing (TraceableScenarios); NewSweepCell rejects it up front on
	// any other scenario. Tracing never changes run results.
	Trace *telemetry.Options
	// TraceSink receives each traced run's finished trace. It is
	// invoked from sweep worker goroutines — possibly concurrently —
	// so implementations must be safe for concurrent use.
	TraceSink func(scenario, backend string, seed int64, tr *telemetry.Trace)
}

// DefaultSweepParams returns test-sized scenario parameters (a k=4
// fabric, sub-second cells) — the CLI scales them up via flags.
func DefaultSweepParams() SweepParams {
	return SweepParams{
		FatTreeK:    4,
		Bytes:       256 << 10,
		Replicas:    3,
		Senders:     8,
		Sessions:    80,
		LoadFactor:  0.33,
		Mappers:     4,
		Reducers:    4,
		ShuffleSkew: 0.9,
		Store:       store.ShortConfig(),
		Chaos:       testChaosOptions(),
	}
}

// testChaosOptions shrinks the chaos defaults to the sweep engine's
// test-sized k=4 fabric (sub-second cells); cmd/polychaos scales them
// up via flags.
func testChaosOptions() ChaosOptions {
	o := DefaultChaosOptions()
	o.FatTreeK = 4
	o.Flows = 6
	o.Senders = 6
	o.Bytes = 256 << 10
	o.Fault.FailAt = 500 * 1000 // 500 µs: mid-flow for 256 KB at 1 Gbps
	o.Deadline = 1e9            // 1 s
	return o
}

// sweepScenarios is the registry behind NewSweepCell: how each named
// scenario is sized from SweepParams, and whether it observes its
// fabric (Env.Observe) and so supports tracing. The figure scenarios
// run many hundreds of overlapping sessions per cell and the storage
// cluster owns its own fabric, so tracing there is rejected rather
// than silently dropped.
var sweepScenarios = []struct {
	name      string
	traceable bool
	build     func(p SweepParams) Scenario
}{
	{"fig1a", false, func(p SweepParams) Scenario { return p.fig1(PatternMulticast) }},
	{"fig1b", false, func(p SweepParams) Scenario { return p.fig1(PatternMultiSource) }},
	{"incast", true, func(p SweepParams) Scenario {
		return Incast{FatTreeK: p.FatTreeK, Senders: p.Senders, Bytes: p.Bytes}
	}},
	{"shuffle", true, func(p SweepParams) Scenario {
		return ShuffleOptions{
			FatTreeK: p.FatTreeK, Mappers: p.Mappers, Reducers: p.Reducers,
			BytesPerPair: p.Bytes, Skew: p.ShuffleSkew, StragglerFactor: p.Straggler,
		}
	}},
	{"storage", false, func(p SweepParams) Scenario { return Storage{Cluster: p.Store} }},
	{"chaos", true, func(p SweepParams) Scenario { return p.Chaos }},
}

func (p SweepParams) fig1(pattern Pattern) Fig1 {
	return Fig1{
		Scale:    Scale{FatTreeK: p.FatTreeK, Sessions: p.Sessions, Bytes: p.Bytes, LoadFactor: p.LoadFactor},
		Pattern:  pattern,
		Replicas: p.Replicas,
	}
}

// SweepScenarios lists the scenario names NewSweepCell accepts.
func SweepScenarios() []string { return scenarioNames(func(int) bool { return true }) }

// TraceableScenarios lists the sweep scenarios that support PolyScope
// tracing (SweepParams.Trace).
func TraceableScenarios() []string {
	return scenarioNames(func(i int) bool { return sweepScenarios[i].traceable })
}

func scenarioNames(keep func(i int) bool) []string {
	var out []string
	for i, e := range sweepScenarios {
		if keep(i) {
			out = append(out, e.name)
		}
	}
	return out
}

// SweepCells builds one cell of the named scenario, sized from p, per
// backend. Unknown scenarios, configurations their Validate rejects
// and unsupported combinations are errors, reported before anything
// runs.
func SweepCells(scenario string, backends []store.BackendKind, p SweepParams) ([]sweep.Cell, error) {
	for _, e := range sweepScenarios {
		if e.name != scenario {
			continue
		}
		if p.Trace != nil && !e.traceable {
			return nil, fmt.Errorf("harness: scenario %q does not support tracing (traceable: %v)",
				scenario, TraceableScenarios())
		}
		return p.Cells(e.build(p), backends)
	}
	return nil, fmt.Errorf("harness: unknown sweep scenario %q (have %v)", scenario, SweepScenarios())
}

// NewSweepCell is SweepCells for a single backend.
func NewSweepCell(scenario string, backend store.BackendKind, p SweepParams) (sweep.Cell, error) {
	cells, err := SweepCells(scenario, []store.BackendKind{backend}, p)
	if err != nil {
		return sweep.Cell{}, err
	}
	return cells[0], nil
}

// Cells wraps any scenario as one sweep cell per backend; only p's
// observation fields (Meter, SLO, Trace, TraceSink) apply.
func (p SweepParams) Cells(sc Scenario, backends []store.BackendKind) ([]sweep.Cell, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("harness: no backends selected")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cells := make([]sweep.Cell, len(backends))
	for i, be := range backends {
		cells[i] = p.cell(sc, be)
	}
	return cells, nil
}

// cell wraps one scenario x backend point as a sweep cell whose every
// repetition is one Run. Unmetered, the run gets the zero Observers.
// Metered (Meter or SLO), each run gets a fresh single-goroutine
// registry whose histograms become the cell's pooled distributions and
// whose counters become slo_attainment.
func (p SweepParams) cell(sc Scenario, backend store.BackendKind) sweep.Cell {
	run := func(seed int64, reg *metrics.Registry) (sweep.Metrics, error) {
		obs := Observers{Trace: p.Trace, Registry: reg}
		if p.SLO != nil {
			obs.SLO = *p.SLO
		}
		res, err := Run(sc, backend, seed, obs)
		if err != nil {
			return nil, err
		}
		if res.Trace != nil && p.TraceSink != nil {
			p.TraceSink(sc.Name(), backend.String(), seed, res.Trace)
		}
		return res.Metrics, nil
	}
	cell := sweep.Cell{Scenario: sc.Name(), Backend: backend.String(), Params: sc.Params()}
	if !p.Meter && p.SLO == nil {
		cell.Runner = sweep.RunnerFunc(func(seed int64) (sweep.Metrics, error) { return run(seed, nil) })
		return cell
	}
	cell.Runner = sweep.HistRunnerFunc(func(seed int64) (sweep.Metrics, sweep.Hists, error) {
		reg := metrics.NewRegistry()
		m, err := run(seed, reg)
		if err != nil {
			return nil, nil, err
		}
		m["slo_attainment"] = registryAttainment(reg)
		return m, registryHists(reg), nil
	})
	return cell
}

// AblationCells returns the A1–A4 ablations (EXPERIMENTS.md
// "Ablations") as sweep cells. Each cell runs both arms
// of its ablation per seed on the Polyraptor backend and reports them
// as paired metrics, so the sweep's CI95 covers the per-seed contrast.
func AblationCells(p SweepParams) ([]sweep.Cell, error) {
	k := p.FatTreeK
	var cells []sweep.Cell
	var invalid error
	if p.Trace != nil {
		invalid = fmt.Errorf("harness: the ablation bundle does not support tracing (traceable: %v)", TraceableScenarios())
	}
	pair := func(name, metric, aKey, bKey string, a, b Scenario) {
		for _, arm := range []Scenario{a, b} {
			if err := arm.Validate(); err != nil && invalid == nil {
				invalid = fmt.Errorf("%s: %w", name, err)
			}
		}
		cells = append(cells, sweep.Cell{
			Scenario: name, Backend: "rq",
			Params: map[string]string{"k": strconv.Itoa(k)},
			Runner: sweep.RunnerFunc(func(seed int64) (sweep.Metrics, error) {
				ra, err := Run(a, store.BackendPolyraptor, seed, Observers{})
				if err != nil {
					return nil, err
				}
				rb, err := Run(b, store.BackendPolyraptor, seed, Observers{})
				if err != nil {
					return nil, err
				}
				return sweep.Metrics{aKey: ra.Metrics[metric], bKey: rb.Metrics[metric]}, nil
			}),
		})
	}
	a, b := AblationTrim(k, 12, 70<<10)
	pair("ablation-trim", "goodput_gbps", "trim_gbps", "notrim_gbps", a, b)
	a, b = AblationInitWindow(k, 40<<10, 20)
	pair("ablation-initwindow", "fct_us", "fct_window_us", "fct_nowindow_us", a, b)
	a, b = AblationESI(k, 3, 8, 512<<10)
	pair("ablation-esi", "goodput_gbps", "partitioned_gbps", "random_gbps", a, b)
	a, b = AblationDecode(k, 512<<10, 2000, 6)
	pair("ablation-decode", "goodput_gbps", "nolat_gbps", "lat_gbps", a, b)
	return cells, invalid
}
