// Command polyshuffle runs the many-to-many shuffle experiment: every
// mapper transfers one distinct partition to every reducer (the full
// M×R matrix at once), compared across the Polyraptor, TCP and DCTCP
// transports. The job-level metric is shuffle completion time — the
// slowest pair gates the job — alongside per-pair FCT percentiles and
// aggregate goodput. Partition sizes can be Zipf-skewed across
// reducers and one mapper can be made a straggler.
//
// With -runs N the same template is repeated over N SplitMix-derived
// sub-seeds per backend on the sweep engine's worker pool and
// aggregated statistics are printed instead of the single-run table.
//
// Examples:
//
//	polyshuffle                                  # 8x8 on k=6, all backends
//	polyshuffle -k 4 -mappers 8 -reducers 4 -bytes 65536
//	polyshuffle -skew 1.1 -straggler 4           # hot reducers + a 4x straggler mapper
//	polyshuffle -backend rq,tcp -csv
//	polyshuffle -runs 5 -json > shuffle.json     # 5 seeds per backend, aggregated
//	polyshuffle -trace -trace-out shuffle        # PolyScope trace per backend
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
	"polyraptor/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polyshuffle", flag.ContinueOnError)
	fs.SetOutput(errw)
	def := harness.DefaultShuffleOptions() // flag defaults, so -help never disagrees with behaviour
	var (
		k         = fs.Int("k", def.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
		mappers   = fs.Int("mappers", def.Mappers, "mapper count M")
		reducers  = fs.Int("reducers", def.Reducers, "reducer count R (M+R distinct hosts)")
		bytes     = fs.Int64("bytes", def.BytesPerPair, "mean partition bytes per (mapper, reducer) pair")
		skew      = fs.Float64("skew", def.Skew, "Zipf skew of partition sizes across reducers (0 = uniform)")
		straggler = fs.Float64("straggler", def.StragglerFactor, "scale one mapper's partitions by this factor (0 = off)")
		backends  = fs.String("backend", "all", "comma list of rq|polyraptor, tcp, dctcp, or all")
		seed      = fs.Int64("seed", 1, "seed (base seed with -runs > 1)")
		nruns     = fs.Int("runs", 1, "repetitions per backend over derived sub-seeds (1 = single detailed run)")
		parallel  = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = fs.Bool("json", false, "emit aggregated sweep JSON (implies the multi-seed path)")
		trace     = fs.Bool("trace", false, "single-run mode: record a PolyScope trace per backend and write Perfetto/CSV/explain files")
		traceOut  = fs.String("trace-out", "polyscope", "base path for -trace files (<base>-<backend>.trace.json, ...)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate every flag combination up front — including M+R against
	// the fabric's host count — so an impossible matrix is a clear
	// immediate error instead of a panic deep in the workload draw.
	opt := harness.ShuffleOptions{
		FatTreeK:        *k,
		Mappers:         *mappers,
		Reducers:        *reducers,
		BytesPerPair:    *bytes,
		Skew:            *skew,
		StragglerFactor: *straggler,
	}
	if err := opt.Validate(); err != nil {
		fmt.Fprintf(errw, "polyshuffle: %v\n", err)
		return 2
	}
	kinds, err := store.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(errw, "polyshuffle: %v\n", err)
		return 2
	}
	if *nruns < 1 {
		fmt.Fprintf(errw, "polyshuffle: -runs must be >= 1, got %d\n", *nruns)
		return 2
	}
	if *csv && *jsonOut {
		fmt.Fprintln(errw, "polyshuffle: -csv and -json are mutually exclusive")
		return 2
	}
	if *trace && (*nruns > 1 || *jsonOut) {
		fmt.Fprintln(errw, "polyshuffle: -trace applies to the single-run mode (drop -runs/-json, or use polysweep -scenarios shuffle -trace)")
		return 2
	}

	if *nruns > 1 || *jsonOut {
		// The multi-seed path: the template repeated over derived
		// sub-seeds per backend, aggregated by the sweep engine.
		cells, err := harness.SweepParams{}.Cells(opt, kinds)
		if err != nil {
			fmt.Fprintf(errw, "polyshuffle: %v\n", err)
			return 2
		}
		m := sweep.Matrix{Cells: cells, Seeds: *nruns, BaseSeed: *seed, Parallelism: *parallel}
		return m.Emit("polyshuffle", sweep.Format(*csv, *jsonOut), out, errw)
	}

	// Runs (traced or not) are independent simulations, one per
	// backend on the worker pool.
	var obs harness.Observers
	if *trace {
		obs.Trace = &telemetry.Options{}
	}
	results, err := harness.RunEach(opt, kinds, *seed, obs, *parallel)
	if err != nil {
		fmt.Fprintf(errw, "polyshuffle: %v\n", err)
		return 1
	}
	runs := make([]harness.ShuffleRun, len(results))
	for i, r := range results {
		runs[i] = r.Detail.(harness.ShuffleRun)
	}
	if *csv {
		writeCSV(out, runs)
	} else {
		writeTable(out, opt, runs)
	}
	for i, r := range results {
		if r.Trace == nil {
			continue
		}
		paths, err := r.Trace.WriteFiles(fmt.Sprintf("%s-%s", *traceOut, runs[i].Backend))
		if err != nil {
			fmt.Fprintf(errw, "polyshuffle: %v\n", err)
			return 1
		}
		fmt.Fprintf(errw, "polyshuffle: wrote %s\n", strings.Join(paths, ", "))
	}
	return 0
}

func writeTable(w io.Writer, opt harness.ShuffleOptions, runs []harness.ShuffleRun) {
	fmt.Fprintf(w, "== Polyraptor shuffle (many-to-many) ==\n")
	straggler := "off"
	if opt.StragglerFactor > 1 {
		straggler = fmt.Sprintf("%gx", opt.StragglerFactor)
	}
	fmt.Fprintf(w, "k=%d, %d mappers x %d reducers (%d pairs), %d KB mean partition, skew=%.2f, straggler=%s\n\n",
		opt.FatTreeK, opt.Mappers, opt.Reducers, opt.Mappers*opt.Reducers,
		opt.BytesPerPair>>10, opt.Skew, straggler)
	fmt.Fprintf(w, "%-11s %10s %10s %10s %10s %9s\n",
		"backend", "shuffle", "FCTp50ms", "FCTp99ms", "agg Gbps", "vs rq")
	var rqTime float64
	for _, r := range runs {
		if r.Backend == "polyraptor" {
			rqTime = r.CompletionTime
		}
	}
	for _, r := range runs {
		slowdown := "-"
		if rqTime > 0 {
			slowdown = fmt.Sprintf("%.2fx", r.CompletionTime/rqTime)
		}
		fmt.Fprintf(w, "%-11s %8.2fms %10.2f %10.2f %10.3f %9s\n",
			r.Backend, r.CompletionTime*1e3,
			r.PairFCT.P50*1e3, r.PairFCT.P99*1e3, r.GoodputGbps, slowdown)
	}
}

func writeCSV(w io.Writer, runs []harness.ShuffleRun) {
	fmt.Fprintln(w, "backend,shuffle_s,pair_fct_p50_s,pair_fct_p95_s,pair_fct_p99_s,goodput_gbps,total_bytes")
	for _, r := range runs {
		fmt.Fprintf(w, "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n",
			r.Backend, r.CompletionTime,
			r.PairFCT.P50, r.PairFCT.P95, r.PairFCT.P99,
			r.GoodputGbps, r.TotalBytes)
	}
}
