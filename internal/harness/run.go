// Package harness runs the paper's experiments end to end. Every
// experiment is a Scenario value — Figure 1a/1b (Fig1), incast
// (Incast), shuffle, chaos, the storage cluster, the A1–A4 ablations
// and the E1–E4/Ext-S extensions (EXPERIMENTS.md "Ablations" and
// "Extensions") — and there is one way to run one:
//
//	res, err := harness.Run(scenario, backend, seed, harness.Observers{})
//
// A scenario builds the fabric its backend assumes, draws a seeded
// workload, starts transfer patterns on the store.Transport adapter
// and scores the completions. The zero Observers is the plain run;
// attaching a trace or a metrics registry never changes a result.
package harness

import (
	"fmt"
	"strconv"

	"polyraptor/internal/metrics"
	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
)

// Scenario is one experiment, parametrised by everything except the
// transport under test and the seed.
type Scenario interface {
	// Name labels sweep cells, traces and meter series.
	Name() string
	// Params are the sizing knobs worth echoing in reports.
	Params() map[string]string
	// Validate rejects a configuration that cannot run — an odd
	// arity, a fan-out beyond the fabric's out-of-rack hosts (the
	// peer pickers would spin forever) — before anything is built.
	Validate() error
	// Run executes one seeded repetition on env's backend.
	Run(env *Env) (Result, error)
}

// Loadable is a Scenario with an offered-load axis, the input of the
// saturation finder.
type Loadable interface {
	Scenario
	// LoadKnob names what ScaleLoad multiplies.
	LoadKnob() string
	// ScaleLoad returns the scenario with its load knob multiplied
	// and the knob's effective value. Integer knobs round to the
	// nearest valid value, so distinct multipliers can collapse onto
	// one scenario.
	ScaleLoad(mult float64) (Loadable, float64)
	// Headline names the goodput metric that summarises a run.
	Headline() string
}

// Observers are the optional attachments of a run.
type Observers struct {
	// Trace, when non-nil (the zero value is fine), records a
	// PolyScope flight recorder and timeline probes; the finished
	// trace is returned in Result.Trace.
	Trace *telemetry.Options
	// Registry, when non-nil, receives the run's PolyMeter series:
	// per-flow FCT and goodput histograms, fabric queue depth,
	// Polyraptor stall durations, and offered/slo_met counts, under
	// (scenario, backend) labels. It must be owned by this run alone.
	Registry *metrics.Registry
	// SLO scores every metered flow.
	SLO metrics.SLO
}

// Result is one run's output.
type Result struct {
	// Metrics are the scalars a sweep aggregates across seeds.
	Metrics sweep.Metrics
	// Detail is the scenario's typed result (ShuffleRun, ChaosRun,
	// StorageRun, ranked goodputs, ...) for callers that print more
	// than the scalars; see each scenario.
	Detail any
	// Trace is the finished trace when Observers.Trace was set.
	Trace *telemetry.Trace
}

// Run executes one repetition of sc on the named backend. It returns
// an error — never panics, never hangs — on an invalid scenario, an
// unknown backend (store.NewTransport rejects it), a run that ends
// with transfers outstanding, or one that drains with its books
// unbalanced (store.Transport.Audit).
func Run(sc Scenario, backend store.BackendKind, seed int64, obs Observers) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	env := &Env{Backend: backend, Seed: seed, scenario: sc.Name(), obs: obs}
	env.mt = meter{reg: obs.Registry, l: metrics.Labels{Scenario: sc.Name(), Backend: backend.String()}, slo: obs.SLO}
	res, err := sc.Run(env)
	if err == nil && env.tr != nil {
		err = env.tr.Audit()
	}
	if err != nil {
		return Result{}, err
	}
	if obs.Trace != nil && env.trace == nil {
		return Result{}, fmt.Errorf("harness: scenario %q does not support tracing", sc.Name())
	}
	res.Trace = env.trace
	return res, nil
}

// RunEach runs sc once per backend on the sweep worker pool. Each
// backend simulates on its own fabric, so results are identical at any
// parallelism (<= 0 means GOMAXPROCS) and ordered like backends.
func RunEach(sc Scenario, backends []store.BackendKind, seed int64, obs Observers, parallelism int) ([]Result, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("harness: no backends selected")
	}
	out := make([]Result, len(backends))
	errs := make([]error, len(backends))
	sweep.ForEach(len(backends), parallelism, func(i int) {
		out[i], errs[i] = Run(sc, backends[i], seed, obs)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s on %v: %w", sc.Name(), backends[i], err)
		}
	}
	return out, nil
}

// Env is one run's context: the backend and seed under test, and the
// observer plumbing a scenario threads through its fabric, transport
// and flows.
type Env struct {
	Backend store.BackendKind
	Seed    int64

	scenario string
	obs      Observers
	mt       meter
	net      *netsim.Network // the fabric under test, set by Build
	tr       *store.Transport
	trace    *telemetry.Trace
}

// Build builds the k-ary fat-tree with the switch configuration the
// backend assumes (BackendKind.NetConfig, adjusted by tweak when
// non-nil) and attaches the backend's transport to it; rq overrides
// the Polyraptor configuration (nil = default).
func (e *Env) Build(k int, tweak func(*netsim.Config), rq *polyraptor.Config) (*topology.FatTree, *store.Transport, error) {
	cfg := e.Backend.NetConfig(e.Seed)
	if tweak != nil {
		tweak(&cfg)
	}
	ft, err := topology.NewFatTree(k, cfg)
	if err != nil {
		return nil, nil, err
	}
	e.net = ft.Net
	tr, err := e.transport(ft, rq)
	return ft, tr, err
}

// transport attaches the backend's transport to e.net — Build does it
// for fat-trees; a scenario on another topology sets net and calls it.
func (e *Env) transport(fabric store.GroupFabric, rq *polyraptor.Config) (*store.Transport, error) {
	var err error
	e.tr, err = store.NewTransport(e.Backend, e.net, fabric, e.Seed, rq)
	return e.tr, err
}

// Observe attaches the run's observers to the built fabric and
// transport: the trace's flight recorder (plus, in Drain, its probes
// and the open-sessions gauge), the queue-depth histogram and
// Polyraptor's stall-duration histogram. Call it before injecting
// faults or starting flows, so those layers see the recorder. A
// scenario that never calls it cannot be traced and meters only what
// it records itself.
func (e *Env) Observe() {
	if e.obs.Trace != nil {
		e.trace = telemetry.New(*e.obs.Trace)
		e.trace.SetMeta("scenario", e.scenario)
		e.trace.SetMeta("backend", e.Backend.String())
		e.trace.SetMeta("seed", strconv.FormatInt(e.Seed, 10))
		e.net.Rec = e.trace.Rec
	}
	e.net.QueueHist = e.mt.reg.Histogram("queue_depth_pkts", e.mt.l)
	if e.tr.RQ != nil {
		e.tr.RQ.StallHist = e.mt.reg.Histogram("stall_s", e.mt.l)
	}
}

// Offered declares how many flows the run offers. SLO attainment
// divides by it, so a flow that never completes still counts.
func (e *Env) Offered(n int) { e.mt.offered(n) }

// Flow meters one completed flow by its own completion time.
func (e *Env) Flow(c store.Completion) {
	fct := (c.End - c.Start).Seconds()
	e.mt.flow(fct, perFlowGbps(c.Bytes, fct))
}

// Drain runs the simulation to quiescence — or to the deadline, when
// positive — sampling the trace probes around it. Every flow must
// have been started: the probe's gauges must all exist at its first
// tick.
func (e *Env) Drain(deadline sim.Time) {
	if e.trace != nil {
		e.net.RegisterProbes(e.trace.Probe)
		e.trace.Probe.Gauge("open-sessions", "count", e.tr.OpenSessions)
		e.trace.Start(e.net.Eng)
	}
	if deadline > 0 {
		e.net.Eng.RunUntil(deadline)
	} else {
		e.net.Eng.Run()
	}
	if e.trace != nil {
		e.trace.Finish(e.net.Now())
	}
}

func gbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes*8) / d.Seconds() / 1e9
}
