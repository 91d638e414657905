package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
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

// simScenario is one poly sim configuration: a single transfer pattern
// from (or to) host 0, as a harness.Scenario.
type simScenario struct {
	pattern  string
	k        int
	bytes    int64
	replicas int
	senders  int
	detach   bool
	trim     bool
	// w, when non-nil, makes the run verbose: fabric banner,
	// per-receiver/flow completion lines and queue totals. Metrics are
	// returned either way, so -seeds > 1 aggregates exactly what a
	// single run reports.
	w io.Writer
}

// runSim runs one Polyraptor, TCP or DCTCP transfer pattern and prints
// per-session results, the exploratory companion to bench's fixed
// figures. With -seeds N it aggregates N derived sub-seeds instead.
func runSim(c *cli, args []string) int {
	var sc simScenario
	own := flag.NewFlagSet("", flag.ContinueOnError)
	sc.Flags(own)
	own.VisitAll(func(f *flag.Flag) { c.fs.Var(f.Value, f.Name, f.Usage) })
	c.backends = "rq"
	c.flags(runFlags | formatFlag | traceFlags)
	if code := c.parse(args); code != proceed {
		return code
	}
	if len(c.kinds) > 1 {
		return c.fail(2, "sim runs one backend at a time, got %q", c.backends)
	}
	if c.format == "csv" && !c.sweeps() {
		return c.fail(2, "-format csv applies to -seeds > 1: a single run prints its own lines")
	}
	if err := sc.Validate(); err != nil {
		return c.fail(2, "%v", err)
	}
	// A size flag reaches only the patterns that use it.
	uses := map[string][]string{"senders": {"incast"}, "replicas": {"multicast", "multisource"}, "detach": {"multicast"}}
	var misapplied error
	c.fs.Visit(func(f *flag.Flag) {
		if pats, ok := uses[f.Name]; ok && !slices.Contains(pats, sc.pattern) && misapplied == nil {
			misapplied = fmt.Errorf("flag -%s applies to pattern %s, not %s", f.Name, strings.Join(pats, " or "), sc.pattern)
		}
	})
	if misapplied != nil {
		return c.fail(2, "%v", misapplied)
	}
	if c.sweeps() {
		cells, err := sc.cells(c.kinds, own)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		return c.emit(cells)
	}

	sc.w = c.out
	var obs harness.Observers
	if c.trace {
		obs.Trace = &telemetry.Options{}
	}
	res, err := harness.Run(sc, c.kinds[0], c.seed, obs)
	if err == nil && res.Trace != nil {
		res.Trace.SetMeta("backend", c.backends)
		var paths []string
		if paths, err = res.Trace.WriteFiles(c.traceOut); err == nil {
			fmt.Fprintf(c.out, "trace: wrote %s\n", strings.Join(paths, ", "))
		}
	}
	if err != nil {
		return c.fail(1, "%v", err)
	}
	fmt.Fprintf(c.out, "%s %s: %.3f Gbps (makespan %v)\n",
		c.backends, sc.pattern, res.Metrics["goodput_gbps"],
		sim.Time(res.Metrics["makespan_s"]*1e9))
	return 0
}

// Flags binds sc's options to fs. The sizes default to the sweep's
// (harness.DefaultSweepParams): poly sim -pattern incast is the incast
// cell of poly sweep.
func (sc *simScenario) Flags(fs *flag.FlagSet) {
	d := harness.DefaultSweepParams()
	fs.StringVar(&sc.pattern, "pattern", "unicast", "unicast, multicast, multisource, incast")
	fs.IntVar(&sc.k, "k", d.Incast.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
	fs.Int64Var(&sc.bytes, "bytes", d.Incast.Bytes, "object bytes (per sender for incast)")
	fs.IntVar(&sc.replicas, "replicas", d.Fig1.Replicas, "replica count for multicast/multisource")
	fs.IntVar(&sc.senders, "senders", d.Incast.Senders, "sender count for incast")
	fs.BoolVar(&sc.detach, "detach", false, "enable straggler detachment (rq multicast)")
	fs.BoolVar(&sc.trim, "trim", true, "NDP packet trimming switches (rq)")
}

// cells returns sc as a sweep cell per backend. An incast on trimming
// switches is the sweep's incast scenario, so it is that cell, replayed
// by poly sweep; any other configuration replays through poly sim with
// the flags of own, sc's binding, that differ from their defaults.
func (sc simScenario) cells(backends []store.BackendKind, own *flag.FlagSet) ([]sweep.Cell, error) {
	if sc.pattern == "incast" && sc.trim {
		p := harness.DefaultSweepParams()
		p.Incast = harness.Incast{FatTreeK: sc.k, Senders: sc.senders, Bytes: sc.bytes}
		return harness.SweepCells("incast", backends, p)
	}
	cells, err := harness.SweepParams{}.Cells(sc, backends)
	opts := ""
	own.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			opts += " -" + f.Name + "=" + v
		}
	})
	for i := range cells {
		be := cells[i].Backend
		cells[i].Replay = func(baseSeed int64, seeds int) string {
			return fmt.Sprintf("poly sim -backends=%s -seed=%d -seeds=%d%s", be, baseSeed, seeds, opts)
		}
	}
	return cells, err
}

func (sc simScenario) Name() string { return sc.pattern }

func (sc simScenario) Params() map[string]string {
	return map[string]string{"k": fmt.Sprint(sc.k), "bytes": fmt.Sprint(sc.bytes)}
}

// Validate rejects impossible flag combinations before anything is
// built: the peer picker requires enough distinct out-of-rack hosts,
// and an oversized -senders/-replicas would spin it forever.
func (sc simScenario) Validate() error {
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
func (sc simScenario) Run(env *harness.Env) (harness.Result, error) {
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
		tr.Unicast(0, pickPeers(ft, 0, env.Seed, 1)[0], sc.bytes, report)
	case "multicast":
		tr.Multicast(0, pickPeers(ft, 0, env.Seed, sc.replicas), sc.bytes, report)
	case "multisource":
		tr.MultiSource(pickPeers(ft, 0, env.Seed, sc.replicas), 0, sc.bytes, report)
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
func (sc simScenario) printf(format string, args ...any) {
	if sc.w != nil {
		fmt.Fprintf(sc.w, format, args...)
	}
}

// pickPeers selects n distinct hosts outside host `client`'s rack;
// Validate has checked that the fabric has that many. The stream name
// predates poly sim and stays, so that peers (and results) do not move.
func pickPeers(ft *topology.FatTree, client int, seed int64, n int) []int {
	out, _ := harness.PickDistinct(sim.RNG(seed, "polysim-peers"), ft.NumHosts(), n,
		func(h int) bool { return ft.SameRack(client, h) })
	return out
}
