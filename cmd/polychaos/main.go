// Command polychaos runs the fault-injection experiments: a traffic
// pattern (one-to-one, incast, multicast or shuffle) starts on a
// healthy fat tree, a seeded fault plan executes mid-flow on the sim
// timeline — core/agg/host links blackholed, whole switches killed,
// links made lossy or flapping — and the Polyraptor, TCP and DCTCP
// transports are scored on completions versus stalls, FCT percentiles,
// goodput, and blackholed-vs-queue-dropped packet counts at a fixed
// deadline. This is the experiment behind the paper's robustness
// claim: per-packet spraying plus rateless coding rides through path
// failures with no rerouting, while a hash-pinned TCP flow routed
// into a remote blackhole is stranded until the fault heals.
//
// With -runs N the same template is repeated over N SplitMix-derived
// sub-seeds per backend on the sweep engine's worker pool (each seed
// draws its own fault targets and workload) and aggregated statistics
// are printed instead of the single-run table.
//
// Examples:
//
//	polychaos                                        # 12 cross-pod flows, 25% of core links down at 2 ms
//	polychaos -frac 0.5 -recover-at 50ms             # heavier fault, healed mid-run
//	polychaos -fault switch -layer core -frac 0.25   # kill a quarter of the core switches
//	polychaos -fault loss -loss-rate 0.2             # lossy links instead of blackholes
//	polychaos -fault flap -flap-period 10ms -recover-at 100ms
//	polychaos -plan "link core 0.5 @2ms recover 50ms"         # same grammar as config files
//	polychaos -pattern shuffle -mappers 6 -reducers 6
//	polychaos -runs 5 -json > chaos.json             # 5 seeds per backend, aggregated
//	polychaos -trace -trace-out chaos                # PolyScope trace per backend + explain report
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/chaos"
	"polyraptor/internal/harness"
	"polyraptor/internal/metrics"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polychaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	def := harness.DefaultChaosOptions() // flag defaults, so -help never disagrees with behaviour
	var (
		k        = fs.Int("k", def.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
		pattern  = fs.String("pattern", def.Pattern, "traffic pattern: one2one, incast, multicast, shuffle")
		flows    = fs.Int("flows", def.Flows, "one2one: cross-pod flow count")
		senders  = fs.Int("senders", def.Senders, "incast: fan-in")
		replicas = fs.Int("replicas", def.Replicas, "multicast: fan-out")
		mappers  = fs.Int("mappers", def.Mappers, "shuffle: mapper count")
		reducers = fs.Int("reducers", def.Reducers, "shuffle: reducer count")
		bytes    = fs.Int64("bytes", def.Bytes, "object bytes per flow/sender/receiver/pair")

		plan      = fs.String("plan", "", "compact fault spec, e.g. \"link core 0.25 @2ms recover 50ms\"; overrides the individual fault flags (a \"seed n\" clause overrides -seed)")
		fault     = fs.String("fault", def.Fault.Kind.String(), "fault kind: link (blackhole), switch (kill), loss, flap")
		layer     = fs.String("layer", def.Fault.Layer.String(), "fabric tier: core, agg, host")
		frac      = fs.Float64("frac", def.Fault.Frac, "fraction of the tier's links/switches to strike")
		failAt    = fs.Duration("fail-at", def.Fault.FailAt, "when the fault strikes (sim time)")
		recoverAt = fs.Duration("recover-at", def.Fault.RecoverAt, "when it heals (0 = never; required for flap)")
		flapP     = fs.Duration("flap-period", def.Fault.FlapPeriod, "flap: full down+up cycle length")
		lossRate  = fs.Float64("loss-rate", def.Fault.LossRate, "loss: per-frame destruction probability (0, 1]")
		deadline  = fs.Duration("deadline", def.Deadline, "sim-time budget; incomplete flows count as stalled")

		sloFCT = fs.Duration("slo-fct", 0, "sweep mode: per-flow completion deadline; meters each run and reports slo_attainment + FCT/goodput histograms (0 = off)")

		backends = fs.String("backend", "all", "comma list of rq|polyraptor, tcp, dctcp, or all")
		seed     = fs.Int64("seed", 1, "seed (base seed with -runs > 1)")
		nruns    = fs.Int("runs", 1, "repetitions per backend over derived sub-seeds (1 = single detailed run)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		csv      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut  = fs.Bool("json", false, "emit aggregated sweep JSON (implies the multi-seed path)")
		verbose  = fs.Bool("v", false, "single-run mode: list struck targets and the fault event log")
		trace    = fs.Bool("trace", false, "single-run mode: record a PolyScope trace per backend and write Perfetto/CSV/explain files")
		traceOut = fs.String("trace-out", "polyscope", "base path for -trace files (<base>-<backend>.trace.json, ...)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate every flag combination up front — fault grammar included
	// — so an impossible plan is a clear immediate error instead of a
	// panic mid-simulation.
	kind, ok := chaos.ParseKind(*fault)
	if !ok {
		fmt.Fprintf(errw, "polychaos: unknown fault kind %q (link, switch, loss, flap)\n", *fault)
		return 2
	}
	lay, ok := chaos.ParseLayer(*layer)
	if !ok {
		fmt.Fprintf(errw, "polychaos: unknown layer %q (core, agg, host)\n", *layer)
		return 2
	}
	opt := harness.ChaosOptions{
		FatTreeK: *k,
		Pattern:  *pattern,
		Flows:    *flows,
		Senders:  *senders,
		Replicas: *replicas,
		Mappers:  *mappers,
		Reducers: *reducers,
		Bytes:    *bytes,
		Fault: chaos.Plan{
			Kind:       kind,
			Layer:      lay,
			Frac:       *frac,
			FailAt:     *failAt,
			RecoverAt:  *recoverAt,
			FlapPeriod: *flapP,
			LossRate:   *lossRate,
		},
		Deadline: *deadline,
	}
	if *plan != "" {
		p, err := chaos.ParsePlan(*plan)
		if err != nil {
			fmt.Fprintf(errw, "polychaos: %v\n", err)
			return 2
		}
		if p.Seed != 0 {
			*seed = p.Seed
		}
		p.Seed = 0 // the harness injects the per-run seed
		opt.Fault = p
	}
	if err := opt.Validate(); err != nil {
		fmt.Fprintf(errw, "polychaos: %v\n", err)
		return 2
	}
	kinds, err := store.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(errw, "polychaos: %v\n", err)
		return 2
	}
	if *nruns < 1 {
		fmt.Fprintf(errw, "polychaos: -runs must be >= 1, got %d\n", *nruns)
		return 2
	}
	if *csv && *jsonOut {
		fmt.Fprintln(errw, "polychaos: -csv and -json are mutually exclusive")
		return 2
	}
	if *trace && (*nruns > 1 || *jsonOut) {
		fmt.Fprintln(errw, "polychaos: -trace applies to the single-run mode (drop -runs/-json, or use polysweep -scenarios chaos -trace)")
		return 2
	}
	if *sloFCT < 0 {
		fmt.Fprintf(errw, "polychaos: -slo-fct must be >= 0, got %v\n", *sloFCT)
		return 2
	}
	if *sloFCT > 0 && *nruns == 1 && !*jsonOut {
		fmt.Fprintln(errw, "polychaos: -slo-fct applies to the sweep mode (add -runs or -json)")
		return 2
	}

	if *nruns > 1 || *jsonOut {
		// The multi-seed path: the template repeated over derived
		// sub-seeds per backend, aggregated by the sweep engine.
		var p harness.SweepParams
		if *sloFCT > 0 {
			p.SLO = &metrics.SLO{FCTDeadline: sloFCT.Seconds()}
		}
		cells, err := p.Cells(opt, kinds)
		if err != nil {
			fmt.Fprintf(errw, "polychaos: %v\n", err)
			return 2
		}
		m := sweep.Matrix{Cells: cells, Seeds: *nruns, BaseSeed: *seed, Parallelism: *parallel}
		return m.Emit("polychaos", sweep.Format(*csv, *jsonOut), out, errw)
	}

	// Runs (traced or not) are independent simulations, one per
	// backend on the worker pool.
	var obs harness.Observers
	if *trace {
		obs.Trace = &telemetry.Options{}
	}
	results, err := harness.RunEach(opt, kinds, *seed, obs, *parallel)
	if err != nil {
		fmt.Fprintf(errw, "polychaos: %v\n", err)
		return 1
	}
	runs := make([]harness.ChaosRun, len(results))
	for i, r := range results {
		runs[i] = r.Detail.(harness.ChaosRun)
	}
	if *csv {
		writeCSV(out, runs)
	} else {
		writeTable(out, opt, runs, *seed, *verbose)
	}
	for i, r := range results {
		if r.Trace == nil {
			continue
		}
		paths, err := r.Trace.WriteFiles(fmt.Sprintf("%s-%s", *traceOut, runs[i].Backend))
		if err != nil {
			fmt.Fprintf(errw, "polychaos: %v\n", err)
			return 1
		}
		fmt.Fprintf(errw, "polychaos: wrote %s\n", strings.Join(paths, ", "))
		if !*csv {
			// The explain report is the trace's headline: which flows
			// stalled and what killed them. CSV stdout stays pure.
			fmt.Fprintln(out)
			if err := r.Trace.WriteExplain(out); err != nil {
				fmt.Fprintf(errw, "polychaos: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

func writeTable(w io.Writer, opt harness.ChaosOptions, runs []harness.ChaosRun, seed int64, verbose bool) {
	fmt.Fprintf(w, "== PolyChaos failure injection ==\n")
	heal := "never healed"
	if opt.Fault.RecoverAt > 0 {
		heal = fmt.Sprintf("healed at %v", opt.Fault.RecoverAt)
	}
	extra := ""
	switch opt.Fault.Kind {
	case chaos.KindLinkLoss:
		extra = fmt.Sprintf(", loss rate %.2f", opt.Fault.LossRate)
	case chaos.KindLinkFlap:
		extra = fmt.Sprintf(", flap period %v", opt.Fault.FlapPeriod)
	}
	targets := 0
	if len(runs) > 0 {
		targets = len(runs[0].FaultTargets)
	}
	fmt.Fprintf(w, "k=%d, pattern=%s, %d KB objects; fault: %s x%d at %s tier (frac %.2f) at %v, %s%s; deadline %v\n\n",
		opt.FatTreeK, opt.Pattern, opt.Bytes>>10,
		opt.Fault.Kind, targets, opt.Fault.Layer, opt.Fault.Frac, opt.Fault.FailAt, heal, extra, opt.Deadline)
	fmt.Fprintf(w, "%-11s %9s %8s %10s %10s %9s %11s %10s\n",
		"backend", "done", "stalled", "FCTp50ms", "FCTp99ms", "Gbps", "blackholed", "queuedrop")
	for _, r := range runs {
		// No finite FCT exists when every flow stalled; 0.00 would
		// read as instant completion.
		p50, p99 := "-", "-"
		if r.Completed > 0 {
			p50 = fmt.Sprintf("%.2f", r.FCT.P50*1e3)
			p99 = fmt.Sprintf("%.2f", r.FCT.P99*1e3)
		}
		fmt.Fprintf(w, "%-11s %5d/%-3d %8d %10s %10s %9.3f %11d %10d\n",
			r.Backend, r.Completed, r.Flows, r.Stalled,
			p50, p99, r.GoodputGbps, r.RouteDrops, r.QueueDrops)
	}
	if verbose && len(runs) > 0 {
		// The schedule depends only on the plan and the seed, so any
		// backend's run has it.
		fmt.Fprintf(w, "\nfault schedule (seed %d):\n", seed)
		for _, t := range runs[0].FaultTargets {
			fmt.Fprintf(w, "  strike %s\n", t)
		}
		for _, ev := range runs[0].FaultEvents {
			fmt.Fprintf(w, "  %10v  %-14s %s\n", ev.At, ev.Action, ev.Target)
		}
	}
}

func writeCSV(w io.Writer, runs []harness.ChaosRun) {
	fmt.Fprintln(w, "backend,flows,completed,stalled,stall_rate,fct_p50_s,fct_p99_s,goodput_gbps,blackholed,link_drops,queue_drops,fault_targets")
	for _, r := range runs {
		// Empty FCT fields when nothing completed: there is no finite
		// completion time to report.
		p50, p99 := "", ""
		if r.Completed > 0 {
			p50 = fmt.Sprintf("%.6f", r.FCT.P50)
			p99 = fmt.Sprintf("%.6f", r.FCT.P99)
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%.6f,%s,%s,%.6f,%d,%d,%d,%d\n",
			r.Backend, r.Flows, r.Completed, r.Stalled, r.StallRate(),
			p50, p99, r.GoodputGbps,
			r.RouteDrops, r.LinkDrops, r.QueueDrops, len(r.FaultTargets))
	}
}
