package harness

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"time"

	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

// Sweep cells: any Scenario behind the one sweep.Cell run function, so
// poly sweep (and -seeds in the other poly subcommands) can execute any
// backend x scenario x seed matrix on the worker pool.

// SweepParams sizes the sweep scenarios, one options value per
// scenario, and says how their runs are observed. The zero value is not
// useful; start from DefaultSweepParams.
type SweepParams struct {
	// Fig1 sizes fig1a and fig1b; each overrides its Pattern.
	Fig1    Fig1
	Incast  Incast
	Shuffle ShuffleOptions
	// Storage's Backend and Seed are overridden per run.
	Storage Storage
	// Chaos's Fault.Seed is overridden per run.
	Chaos ChaosOptions
	// AblationK is the fabric arity of the A1–A4 ablation cells.
	AblationK int

	// SLO, when non-nil, meters every run with a fresh Meter: per-flow
	// FCT and goodput histograms (plus queue depth and Polyraptor stall
	// durations where the scenario drives the fabric), pooled across
	// repetitions, and "slo_attainment", the fraction of offered flows
	// that met the SLO. The zero SLO scores completion only. Metering
	// never changes a run's metrics.
	SLO *metrics.SLO

	// Trace, when non-nil, attaches a PolyScope flight recorder and
	// timeline probes to every run of the scenarios that support
	// tracing (TraceableScenarios); SweepCells rejects it up front on
	// any other scenario. Tracing never changes run results.
	Trace *telemetry.Options
	// TraceSink receives each traced run's finished trace. It is
	// invoked from sweep worker goroutines — possibly concurrently —
	// so implementations must be safe for concurrent use.
	TraceSink func(scenario, backend string, seed int64, tr *telemetry.Trace)
}

// DefaultSweepParams returns every scenario at its one default (a k=4
// fabric, sub-second cells), the defaults of poly sweep and poly <sub>.
func DefaultSweepParams() SweepParams {
	return SweepParams{
		Fig1:      DefaultFig1(),
		Incast:    DefaultIncast(),
		Shuffle:   DefaultShuffleOptions(),
		Storage:   Storage{Cluster: store.DefaultConfig()},
		Chaos:     DefaultChaosOptions(),
		AblationK: 4,
	}
}

const kUsage = "fat-tree arity (k even; hosts = k^3/4)"

// sweepScenarios is the registry behind SweepCells: each scenario's
// options in SweepParams, bound to poly sweep's flags, and whether it
// observes its fabric (Env.Observe) and so supports tracing. The figure
// scenarios run many hundreds of overlapping sessions per cell and the
// storage cluster owns its own fabric, so tracing there is rejected.
var sweepScenarios = []struct {
	name      string
	traceable bool
	flags     func(p *SweepParams, fs *flag.FlagSet)
	build     func(p SweepParams) Scenario
}{
	{"fig1a", false, func(p *SweepParams, fs *flag.FlagSet) { p.Fig1.Flags(fs) }, func(p SweepParams) Scenario { p.Fig1.Pattern = PatternMulticast; return p.Fig1 }},
	{"fig1b", false, func(p *SweepParams, fs *flag.FlagSet) { p.Fig1.Flags(fs) }, func(p SweepParams) Scenario { p.Fig1.Pattern = PatternMultiSource; return p.Fig1 }},
	{"incast", true, func(p *SweepParams, fs *flag.FlagSet) { p.Incast.Flags(fs) }, func(p SweepParams) Scenario { return p.Incast }},
	{"shuffle", true, func(p *SweepParams, fs *flag.FlagSet) { p.Shuffle.Flags(fs) }, func(p SweepParams) Scenario { return p.Shuffle }},
	{"storage", false, func(p *SweepParams, fs *flag.FlagSet) { p.Storage.Flags(fs) }, func(p SweepParams) Scenario { return p.Storage }},
	{"chaos", true, func(p *SweepParams, fs *flag.FlagSet) { p.Chaos.Flags(fs, "chaos-") }, func(p SweepParams) Scenario { return p.Chaos }},
}

// set stores sc, a scenario of the registry, as its options in p.
func (p *SweepParams) set(sc Scenario) {
	switch o := sc.(type) {
	case Fig1:
		p.Fig1 = o
	case Incast:
		p.Incast = o
	case ShuffleOptions:
		p.Shuffle = o
	case Storage:
		p.Storage = o
	case ChaosOptions:
		p.Chaos = o
	}
}

// Flags binds the options in p of the named scenario — a SweepScenarios
// name or "ablations" — to a new flag set under poly sweep's flag
// names, each defaulting to its value in p.
func (p *SweepParams) Flags(scenario string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet(scenario, flag.ContinueOnError)
	if scenario == "ablations" {
		fs.IntVar(&p.AblationK, "k", p.AblationK, kUsage)
		return fs, nil
	}
	for _, e := range sweepScenarios {
		if e.name == scenario {
			e.flags(p, fs)
			return fs, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown sweep scenario %q (have %v)", scenario, SweepScenarios())
}

// replay returns the poly sweep line of a cell of the named scenario
// sized by p: the option flags whose values differ from their defaults,
// read through the scenario's flag set, then the SLO flags if p meters.
func (p SweepParams) replay(scenario, backend string) func(baseSeed int64, seeds int) string {
	bound := DefaultSweepParams()
	fs, _ := bound.Flags(scenario)
	bound = p // the flags now read p's values against the defaults' DefValue
	opts := ""
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			opts += " -" + f.Name + "=" + v
		}
	})
	switch {
	case p.SLO == nil:
	case !p.SLO.Enabled():
		opts += " -meter"
	default:
		if p.SLO.FCTDeadline > 0 {
			opts += fmt.Sprintf(" -slo-fct=%v", time.Duration(math.Round(p.SLO.FCTDeadline*1e9)))
		}
		if p.SLO.GoodputFloor > 0 {
			opts += " -slo-goodput=" + strconv.FormatFloat(p.SLO.GoodputFloor, 'g', -1, 64)
		}
	}
	return func(baseSeed int64, seeds int) string {
		return fmt.Sprintf("poly sweep -scenarios=%s -backends=%s -seed=%d -seeds=%d%s", scenario, backend, baseSeed, seeds, opts)
	}
}

// flagParams reads the named options of a scenario's flags, for Params.
func flagParams(bind func(*flag.FlagSet), names ...string) map[string]string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bind(fs)
	params := make(map[string]string, len(names))
	for _, name := range names {
		params[name] = fs.Lookup(name).Value.String()
	}
	return params
}

// SweepScenarios lists the scenario names SweepCells accepts.
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
		cells, err := p.Cells(e.build(p), backends)
		for i := range cells {
			cells[i].Replay = p.replay(scenario, cells[i].Backend)
		}
		return cells, err
	}
	return nil, fmt.Errorf("harness: unknown sweep scenario %q (have %v)", scenario, SweepScenarios())
}

// Cells wraps any scenario as one sweep cell per backend; only p's
// observation fields (SLO, Trace, TraceSink) apply.
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
// Metered (SLO set), each run gets a fresh Meter whose histograms
// become the cell's pooled distributions and whose counts become
// slo_attainment.
func (p SweepParams) cell(sc Scenario, backend store.BackendKind) sweep.Cell {
	run := func(seed int64) (sweep.Metrics, sweep.Hists, error) {
		obs := Observers{Trace: p.Trace}
		if p.SLO != nil {
			obs.Meter = &Meter{SLO: *p.SLO}
		}
		res, err := Run(sc, backend, seed, obs)
		if err != nil {
			return nil, nil, err
		}
		if res.Trace != nil && p.TraceSink != nil {
			p.TraceSink(sc.Name(), backend.String(), seed, res.Trace)
		}
		if obs.Meter != nil {
			res.Metrics["slo_attainment"] = obs.Meter.Attainment()
		}
		return res.Metrics, obs.Meter.Hists(), nil
	}
	return sweep.Cell{Scenario: sc.Name(), Backend: backend.String(), Params: sc.Params(), Run: run}
}

// AblationCells returns the A1–A4 ablations (EXPERIMENTS.md
// "Ablations") as sweep cells. Each cell runs both arms
// of its ablation per seed on the Polyraptor backend and reports them
// as paired metrics, so the sweep's CI95 covers the per-seed contrast.
func AblationCells(p SweepParams) ([]sweep.Cell, error) {
	k := p.AblationK
	replay := SweepParams{AblationK: k}.replay("ablations", "rq")
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
			Replay: replay,
			Run: func(seed int64) (sweep.Metrics, sweep.Hists, error) {
				ra, err := Run(a, store.BackendPolyraptor, seed, Observers{})
				if err != nil {
					return nil, nil, err
				}
				rb, err := Run(b, store.BackendPolyraptor, seed, Observers{})
				if err != nil {
					return nil, nil, err
				}
				return sweep.Metrics{aKey: ra.Metrics[metric], bKey: rb.Metrics[metric]}, nil, nil
			},
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
