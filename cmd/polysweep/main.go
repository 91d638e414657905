// Command polysweep runs declarative experiment sweeps: a matrix of
// backend x scenario cells, each repeated over derived sub-seeds,
// executed concurrently on a worker pool and aggregated to mean, 95%
// confidence interval and tail percentiles. It is the multi-seed,
// parallel path to every experiment the repo knows how to run —
// reproducing a paper figure honestly (5 seeded repetitions with
// Student-t error bars) in minutes instead of hours.
//
// Results are byte-identical at any -parallel setting: each run gets
// its own SplitMix-derived sub-seed and its own simulation, and
// aggregation order is fixed by the matrix, not by completion order.
//
// Examples:
//
//	polysweep                                        # incast+storage x all backends x 5 seeds
//	polysweep -scenarios all -seeds 5
//	polysweep -scenarios incast -backends rq,dctcp -senders 16
//	polysweep -scenarios storage -requests 300 -fail rack -format json
//	polysweep -scenarios ablations -seeds 3
//	polysweep -scenarios chaos -chaos-frac 0.25 -chaos-recover-at 50ms
//	polysweep -slo-fct 5ms                           # PolyMeter: histograms + SLO attainment
//	polysweep -meter                                 # histograms only (attainment = completion rate)
//	polysweep -parallel 1                            # serial reference run
//	polysweep -scenarios chaos -trace -v             # PolyScope trace per run, progress on stderr
//	polysweep -cpuprofile sweep.pprof -memprofile sweep.mprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

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
	fs := flag.NewFlagSet("polysweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	def := harness.DefaultSweepParams()
	stdef := def.Store
	var (
		scenarios = fs.String("scenarios", "incast,storage", "comma list of fig1a, fig1b, incast, shuffle, storage, chaos, ablations, or all")
		backends  = fs.String("backends", "all", "comma list of rq|polyraptor, tcp, dctcp, or all")
		seeds     = fs.Int("seeds", 5, "repetitions per cell (paper: 5)")
		seed      = fs.Int64("seed", 1, "base seed for sub-seed derivation")
		parallel  = fs.Int("parallel", 0, "max concurrent runs (0 = GOMAXPROCS)")
		format    = fs.String("format", "table", "output format: table, csv, json")
		verbose   = fs.Bool("v", false, "print per-run progress to stderr as cells finish")

		meterOn = fs.Bool("meter", false, "attach PolyMeter: pooled FCT/goodput/queue/stall histograms and slo_attainment per cell")
		sloFCT  = fs.Duration("slo-fct", 0, "SLO: per-flow completion deadline; implies -meter (0 = no deadline)")
		sloGbps = fs.Float64("slo-goodput", 0, "SLO: per-flow goodput floor in Gbps; implies -meter (0 = no floor)")

		trace    = fs.Bool("trace", false, "record a PolyScope trace for every run (incast/shuffle/chaos scenarios) and write per-run export files")
		traceOut = fs.String("trace-out", "polyscope", "base path for -trace files (<base>-<scenario>-<backend>-s<seed>.trace.json, ...)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")

		k        = fs.Int("k", def.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
		bytes    = fs.Int64("bytes", def.Bytes, "object bytes (per sender for incast)")
		replicas = fs.Int("replicas", def.Replicas, "replica count (fig1a/fig1b, storage)")
		senders  = fs.Int("senders", def.Senders, "incast fan-in")
		sessions = fs.Int("sessions", def.Sessions, "fig1a/fig1b session count")
		load     = fs.Float64("load", def.LoadFactor, "fig1a/fig1b offered-load fraction")

		mappers   = fs.Int("mappers", def.Mappers, "shuffle: mapper count M")
		reducers  = fs.Int("reducers", def.Reducers, "shuffle: reducer count R (M+R distinct hosts)")
		skew      = fs.Float64("skew", def.ShuffleSkew, "shuffle: Zipf skew of partition sizes across reducers")
		straggler = fs.Float64("straggler", def.Straggler, "shuffle: scale one mapper's partitions by this factor (0 = off)")

		chdef        = def.Chaos
		chaosPattern = fs.String("chaos-pattern", chdef.Pattern, "chaos: traffic pattern (one2one, incast, multicast, shuffle)")
		chaosFlows   = fs.Int("chaos-flows", chdef.Flows, "chaos: one2one flow count")
		chaosFault   = fs.String("chaos-fault", chdef.Fault.Kind.String(), "chaos: fault kind (link, switch, loss, flap)")
		chaosLayer   = fs.String("chaos-layer", chdef.Fault.Layer.String(), "chaos: fabric tier (core, agg, host)")
		chaosFrac    = fs.Float64("chaos-frac", chdef.Fault.Frac, "chaos: fraction of the tier struck")
		chaosFailAt  = fs.Duration("chaos-fail-at", chdef.Fault.FailAt, "chaos: when the fault strikes")
		chaosRecover = fs.Duration("chaos-recover-at", chdef.Fault.RecoverAt, "chaos: when it heals (0 = never)")
		chaosFlap    = fs.Duration("chaos-flap-period", chdef.Fault.FlapPeriod, "chaos: flap cycle length")
		chaosLoss    = fs.Float64("chaos-loss-rate", chdef.Fault.LossRate, "chaos: per-frame loss probability")
		chaosDeadl   = fs.Duration("chaos-deadline", chdef.Deadline, "chaos: sim-time budget; incomplete flows count as stalled")

		objects  = fs.Int("objects", stdef.Objects, "storage: pre-loaded catalogue objects")
		requests = fs.Int("requests", stdef.Requests, "storage: client requests")
		putfrac  = fs.Float64("putfrac", stdef.PutFrac, "storage: fraction of requests that are PUTs")
		zipf     = fs.Float64("zipf", stdef.ZipfSkew, "storage: Zipf popularity skew")
		failMode = fs.String("fail", stdef.FailMode.String(), "storage: mid-run failure: none, server, rack")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintf(errw, "polysweep: -seeds must be >= 1, got %d\n", *seeds)
		return 2
	}
	if *format != "table" && *format != "csv" && *format != "json" {
		fmt.Fprintf(errw, "polysweep: unknown format %q (table|csv|json)\n", *format)
		return 2
	}
	if *sloFCT < 0 {
		fmt.Fprintf(errw, "polysweep: -slo-fct must be >= 0, got %v\n", *sloFCT)
		return 2
	}
	if *sloGbps < 0 {
		fmt.Fprintf(errw, "polysweep: -slo-goodput must be >= 0, got %v\n", *sloGbps)
		return 2
	}

	p := def
	p.FatTreeK = *k
	p.Bytes = *bytes
	p.Replicas = *replicas
	p.Senders = *senders
	p.Sessions = *sessions
	p.LoadFactor = *load
	p.Mappers = *mappers
	p.Reducers = *reducers
	p.ShuffleSkew = *skew
	p.Straggler = *straggler
	p.Store.FatTreeK = *k
	p.Store.ObjectBytes = *bytes
	p.Store.Replicas = *replicas
	p.Store.Objects = *objects
	p.Store.Requests = *requests
	p.Store.PutFrac = *putfrac
	p.Store.ZipfSkew = *zipf
	mode, ok := store.ParseFailMode(*failMode)
	if !ok {
		fmt.Fprintf(errw, "polysweep: unknown failure mode %q\n", *failMode)
		return 2
	}
	p.Store.FailMode = mode
	p.Store.Seed = *seed
	if *sloFCT > 0 || *sloGbps > 0 {
		p.SLO = &metrics.SLO{FCTDeadline: sloFCT.Seconds(), GoodputFloor: *sloGbps}
	} else if *meterOn {
		p.Meter = true
	}

	ckind, ok := chaos.ParseKind(*chaosFault)
	if !ok {
		fmt.Fprintf(errw, "polysweep: unknown chaos fault kind %q (link, switch, loss, flap)\n", *chaosFault)
		return 2
	}
	clayer, ok := chaos.ParseLayer(*chaosLayer)
	if !ok {
		fmt.Fprintf(errw, "polysweep: unknown chaos layer %q (core, agg, host)\n", *chaosLayer)
		return 2
	}
	p.Chaos.FatTreeK = *k
	p.Chaos.Bytes = *bytes
	p.Chaos.Senders = *senders
	p.Chaos.Replicas = *replicas
	p.Chaos.Mappers = *mappers
	p.Chaos.Reducers = *reducers
	p.Chaos.Pattern = *chaosPattern
	p.Chaos.Flows = *chaosFlows
	p.Chaos.Fault = chaos.Plan{
		Kind:       ckind,
		Layer:      clayer,
		Frac:       *chaosFrac,
		FailAt:     *chaosFailAt,
		RecoverAt:  *chaosRecover,
		FlapPeriod: *chaosFlap,
		LossRate:   *chaosLoss,
	}
	p.Chaos.Deadline = *chaosDeadl

	scen, err := parseScenarios(*scenarios)
	if err != nil {
		fmt.Fprintf(errw, "polysweep: %v\n", err)
		return 2
	}
	if *trace {
		p.Trace = &telemetry.Options{}
		var traceMu sync.Mutex
		p.TraceSink = func(scenario, backend string, seed int64, tr *telemetry.Trace) {
			base := fmt.Sprintf("%s-%s-%s-s%d", *traceOut, scenario, backend, seed)
			paths, err := tr.WriteFiles(base)
			traceMu.Lock()
			defer traceMu.Unlock()
			if err != nil {
				fmt.Fprintf(errw, "polysweep: trace %s: %v\n", base, err)
				return
			}
			fmt.Fprintf(errw, "polysweep: wrote %s\n", strings.Join(paths, ", "))
		}
	}
	kinds, err := store.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(errw, "polysweep: %v\n", err)
		return 2
	}

	// Building a cell validates its scenario against the fabric, so
	// every impossible parameter is an error here, before anything runs
	// (or is profiled).
	var cells []sweep.Cell
	for _, s := range scen {
		var more []sweep.Cell
		if s == "ablations" {
			// Ablations contrast Polyraptor against itself (trimming
			// off, pull-only start, ...), so the backend axis does not
			// apply — say so instead of silently dropping it.
			if *backends != "all" && *backends != "rq" && *backends != "polyraptor" {
				fmt.Fprintln(errw, "polysweep: note: ablation cells always run on the rq backend; -backends does not apply to them")
			}
			more, err = harness.AblationCells(p)
		} else {
			more, err = harness.SweepCells(s, kinds, p)
		}
		if err != nil {
			fmt.Fprintf(errw, "polysweep: %v\n", err)
			return 2
		}
		cells = append(cells, more...)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errw, "polysweep: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(errw, "polysweep: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(errw, "polysweep: %v\n", err)
			}
		}()
	}

	m := sweep.Matrix{Cells: cells, Seeds: *seeds, BaseSeed: *seed, Parallelism: *parallel}
	if *verbose {
		// Progress lines go to stderr in completion order; stdout stays
		// byte-identical across parallelism settings.
		m.Progress = func(p sweep.Progress) {
			fmt.Fprintf(errw, "polysweep: [%d/%d] %s seed=%d elapsed=%v eta=%v\n",
				p.Done, p.Total, p.Cell.Name(), p.Seed,
				p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
		}
	}
	start := time.Now()
	code := m.Emit("polysweep", *format, out, errw)
	// Wall clock goes to stderr so machine-readable stdout stays
	// byte-identical across parallelism settings.
	fmt.Fprintf(errw, "polysweep: %d cells x %d seeds (%d runs) in %v\n",
		len(cells), *seeds, len(cells)**seeds, time.Since(start).Round(time.Millisecond))
	return code
}

// parseScenarios expands the -scenarios flag, preserving order. Names
// are checked when their cells are built.
func parseScenarios(arg string) ([]string, error) {
	if arg == "all" {
		return append(harness.SweepScenarios(), "ablations"), nil
	}
	var out []string
	for _, name := range strings.Split(arg, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

// writeHeapProfile snapshots the heap after a GC — the sweep's live
// set, not transient garbage — into the named file.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
