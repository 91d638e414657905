// Command polysim runs a single Polyraptor, TCP or DCTCP scenario on a
// simulated fabric and prints per-session results — the exploratory
// companion to polybench's fixed figures. With -runs N it repeats the
// scenario over N SplitMix-derived sub-seeds on the sweep engine's
// worker pool and prints aggregated statistics (mean, CI95, tails)
// instead of per-receiver detail.
//
// Examples:
//
//	polysim -proto rq  -pattern unicast     -bytes 4194304
//	polysim -proto rq  -pattern multicast   -replicas 3
//	polysim -proto rq  -pattern multisource -replicas 3
//	polysim -proto rq  -pattern incast      -senders 32 -bytes 262144
//	polysim -proto tcp -pattern incast      -senders 32 -bytes 262144
//	polysim -proto rq  -pattern multicast -replicas 5 -detach
//	polysim -proto rq  -pattern incast -runs 5            # 5 seeds, parallel, aggregated
//	polysim -proto rq  -pattern incast -runs 5 -parallel 1
//	polysim -proto tcp -pattern incast -trace             # PolyScope trace of the run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/harness"
	"polyraptor/internal/netsim"
	"polyraptor/internal/polyraptor"
	"polyraptor/internal/sim"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
	"polyraptor/internal/topology"
	"polyraptor/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// scenario is one polysim configuration: a single transfer pattern
// from (or to) host 0, as a harness.Scenario.
type scenario struct {
	pattern  string
	k        int
	bytes    int64
	replicas int
	senders  int
	detach   bool
	trim     bool
	// w, when non-nil, makes the run verbose: fabric banner,
	// per-receiver/flow completion lines and queue totals. Metrics are
	// returned either way, so -runs > 1 aggregates exactly what a
	// single run reports.
	w io.Writer
}

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polysim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		proto    = fs.String("proto", "rq", "transport: rq, tcp or dctcp")
		pattern  = fs.String("pattern", "unicast", "unicast, multicast, multisource, incast")
		k        = fs.Int("k", 4, "fat-tree arity (k even; hosts = k^3/4)")
		bytes    = fs.Int64("bytes", 4<<20, "object bytes (per sender for incast)")
		replicas = fs.Int("replicas", 3, "replica count for multicast/multisource")
		senders  = fs.Int("senders", 8, "sender count for incast")
		seed     = fs.Int64("seed", 1, "seed (base seed with -runs > 1)")
		detach   = fs.Bool("detach", false, "enable straggler detachment (rq multicast)")
		trim     = fs.Bool("trim", true, "NDP packet trimming switches (rq)")
		runs     = fs.Int("runs", 1, "repetitions over derived sub-seeds (1 = verbose single run)")
		parallel = fs.Int("parallel", 0, "max concurrent runs with -runs > 1 (0 = GOMAXPROCS)")
		trace    = fs.Bool("trace", false, "single-run mode: record a PolyScope trace and write Perfetto/CSV/explain files")
		traceOut = fs.String("trace-out", "polyscope", "base path for -trace files (<base>.trace.json, ...)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	sc := scenario{
		pattern: *pattern, k: *k, bytes: *bytes,
		replicas: *replicas, senders: *senders, detach: *detach, trim: *trim,
	}
	backend, ok := store.ParseBackend(*proto)
	if !ok {
		fmt.Fprintf(errw, "polysim: unknown protocol %q (rq|tcp|dctcp)\n", *proto)
		return 2
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(errw, "polysim: %v\n", err)
		return 2
	}
	if *runs < 1 {
		fmt.Fprintf(errw, "polysim: -runs must be >= 1, got %d\n", *runs)
		return 2
	}
	if *trace && *runs > 1 {
		fmt.Fprintln(errw, "polysim: -trace applies to the single-run mode (drop -runs, or use polysweep -trace)")
		return 2
	}

	if *runs > 1 {
		return sweep.Matrix{
			Cells: []sweep.Cell{{
				Scenario: sc.pattern,
				Backend:  *proto,
				Params:   sc.Params(),
				Runner: sweep.RunnerFunc(func(s int64) (sweep.Metrics, error) {
					res, err := harness.Run(sc, backend, s, harness.Observers{})
					return res.Metrics, err
				}),
			}},
			Seeds:       *runs,
			BaseSeed:    *seed,
			Parallelism: *parallel,
		}.Emit("polysim", "table", out, errw)
	}

	sc.w = out
	var obs harness.Observers
	if *trace {
		obs.Trace = &telemetry.Options{}
	}
	res, err := harness.Run(sc, backend, *seed, obs)
	if err == nil && res.Trace != nil {
		res.Trace.SetMeta("backend", *proto) // the name the user typed, not its canonical form
		var paths []string
		if paths, err = res.Trace.WriteFiles(*traceOut); err == nil {
			fmt.Fprintf(out, "trace: wrote %s\n", strings.Join(paths, ", "))
		}
	}
	if err != nil {
		fmt.Fprintf(errw, "polysim: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s %s: %.3f Gbps (makespan %v)\n",
		*proto, sc.pattern, res.Metrics["goodput_gbps"],
		sim.Time(res.Metrics["makespan_s"]*1e9))
	return 0
}

func (sc scenario) Name() string { return sc.pattern }

func (sc scenario) Params() map[string]string {
	return map[string]string{"k": fmt.Sprint(sc.k), "bytes": fmt.Sprint(sc.bytes)}
}

// Validate rejects impossible flag combinations before anything is
// built: the peer picker requires enough distinct out-of-rack hosts,
// and an oversized -senders/-replicas would spin it forever.
func (sc scenario) Validate() error {
	if err := topology.CheckArity(sc.k); err != nil {
		return err
	}
	if sc.bytes < 1 {
		return fmt.Errorf("bytes must be >= 1, got %d", sc.bytes)
	}
	// Peers must sit outside the client's rack.
	switch sc.pattern {
	case "unicast":
	case "multicast", "multisource":
		if err := topology.CheckFanout(sc.k, sc.replicas, "replicas"); err != nil {
			return fmt.Errorf("pattern %s %w", sc.pattern, err)
		}
	case "incast":
		if err := topology.CheckFanout(sc.k, sc.senders, "senders"); err != nil {
			return fmt.Errorf("incast %w", err)
		}
	default:
		return fmt.Errorf("unknown pattern %q (unicast|multicast|multisource|incast)", sc.pattern)
	}
	return nil
}

// Run executes the pattern for one seed.
func (sc scenario) Run(env *harness.Env) (harness.Result, error) {
	pcfg := polyraptor.DefaultConfig()
	pcfg.StragglerDetach = sc.detach
	ft, tr, err := env.Build(sc.k, func(c *netsim.Config) { c.Trimming = c.Trimming && sc.trim }, &pcfg)
	if err != nil {
		return harness.Result{}, err
	}
	env.Observe()
	ncfg := ft.Net.Cfg
	sc.printf("fabric: k=%d (%d hosts), link %d Mbps, delay %v, trimming=%v, ecn=%d\n",
		sc.k, ft.NumHosts(), ncfg.LinkRate/1e6, ncfg.LinkDelay, ncfg.Trimming, ncfg.ECNThreshold)

	var last sim.Time
	transferred := sc.bytes // bytes the pattern moves end to end
	report := func(c store.Completion) {
		last = max(last, c.End)
		if tr.RQ != nil {
			ev := c.RQ
			sc.printf("receiver %3d: %8.3f Gbps  (%d symbols, %d trims, %v, detached=%v)\n",
				ev.Receiver, ev.GoodputGbps(), ev.Symbols, ev.Trims, ev.End-ev.Start, ev.Detached)
		} else {
			r := c.TCP
			sc.printf("flow %2d %3d->%3d: %8.3f Gbps  (%d rtx, %d RTO, %v)\n",
				r.Flow, r.Src, r.Dst, r.GoodputGbps(), r.Retransmits, r.Timeouts, r.End-r.Start)
		}
	}
	switch sc.pattern {
	case "unicast":
		tr.Unicast(0, pick(ft, 0, env.Seed, 1)[0], sc.bytes, report)
	case "multicast":
		tr.Multicast(0, pick(ft, 0, env.Seed, sc.replicas), sc.bytes, report)
	case "multisource":
		tr.MultiSource(pick(ft, 0, env.Seed, sc.replicas), 0, sc.bytes, report)
	case "incast":
		transferred = sc.bytes * int64(sc.senders)
		ic := workload.GenerateIncast(workload.IncastConfig{Senders: sc.senders, BytesPerSender: sc.bytes, Seed: env.Seed}, ft)
		for _, s := range ic.Senders {
			tr.Unicast(s, ic.Client, ic.Bytes, report)
		}
	}
	env.Drain(0)
	tot := ft.Net.QueueTotals()
	sc.printf("switch queues: %d enqueued, %d trimmed, %d dropped (events: %d)\n",
		tot.Enqueued, tot.Trimmed, tot.Dropped, ft.Net.Eng.Processed())
	if last <= 0 {
		return harness.Result{}, fmt.Errorf("no session completed (pattern %s)", sc.pattern)
	}
	return harness.Result{Metrics: sweep.Metrics{
		"goodput_gbps": float64(transferred*8) / last.Seconds() / 1e9,
		"makespan_s":   last.Seconds(),
		"trimmed":      float64(tot.Trimmed),
		"dropped":      float64(tot.Dropped),
	}}, nil
}

// printf writes one line of the verbose report, if there is one.
func (sc scenario) printf(format string, args ...any) {
	if sc.w != nil {
		fmt.Fprintf(sc.w, format, args...)
	}
}

// pick selects n distinct hosts outside host `client`'s rack; Validate
// has checked that the fabric has that many.
func pick(ft *topology.FatTree, client int, seed int64, n int) []int {
	out, _ := harness.PickDistinct(sim.RNG(seed, "polysim-peers"), ft.NumHosts(), n,
		func(h int) bool { return ft.SameRack(client, h) })
	return out
}
