// Command polystore runs the PolyStore experiment: a simulated
// GFS/HDFS-style replicated object store on a fat-tree fabric, with
// PUTs replicated one-to-many and GETs assembled many-to-one, compared
// across the Polyraptor, TCP and DCTCP transports — optionally with a
// server or rack failure and its re-replication storm mid-run.
//
// With -runs N the same cluster template is repeated over N
// SplitMix-derived sub-seeds per backend on the sweep engine's worker
// pool, and aggregated statistics (mean, CI95, tails) are printed
// instead of the single-run table.
//
// Examples:
//
//	polystore                                  # medium cluster, all backends, rack failure
//	polystore -k 4 -requests 200 -backend rq,tcp
//	polystore -replicas 2 -zipf 1.1 -putfrac 0.3
//	polystore -fail server -failfrac 0.25
//	polystore -fail none -csv
//	polystore -runs 5                          # 5 seeds per backend, parallel, aggregated
//	polystore -runs 5 -json > sweep.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polystore", flag.ContinueOnError)
	fs.SetOutput(errw)
	def := store.DefaultConfig() // flag defaults, so -help never disagrees with behaviour
	var (
		k        = fs.Int("k", def.FatTreeK, "fat-tree arity (k even; hosts = k^3/4)")
		replicas = fs.Int("replicas", def.Replicas, "replication factor R (needs R+1 racks)")
		objects  = fs.Int("objects", def.Objects, "pre-loaded catalogue objects")
		bytes    = fs.Int64("bytes", def.ObjectBytes, "object (block) size in bytes")
		requests = fs.Int("requests", def.Requests, "client requests to issue")
		zipf     = fs.Float64("zipf", def.ZipfSkew, "Zipf popularity skew (0 = uniform)")
		putfrac  = fs.Float64("putfrac", def.PutFrac, "fraction of requests that are PUTs")
		load     = fs.Float64("load", def.LoadFactor, "target per-host delivered load fraction")
		lambda   = fs.Float64("lambda", def.Lambda, "request arrival rate /s (0 = derive from -load)")
		failMode = fs.String("fail", def.FailMode.String(), "mid-run failure: none, server, rack")
		failfrac = fs.Float64("failfrac", def.FailFrac, "failure position as a fraction of the request stream")
		backends = fs.String("backend", "all", "comma list of rq|polyraptor, tcp, dctcp, or all")
		seed     = fs.Int64("seed", def.Seed, "seed (base seed with -runs > 1)")
		csv      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		nruns    = fs.Int("runs", 1, "repetitions per backend over derived sub-seeds (1 = single detailed run)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "emit aggregated sweep JSON (implies the multi-seed path)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Validate every flag combination up front — including R against
	// the -k fabric's rack count — so an impossible matrix is a clear
	// immediate error instead of a failure deep in placement.
	mode, ok := store.ParseFailMode(*failMode)
	if !ok {
		fmt.Fprintf(errw, "polystore: unknown failure mode %q\n", *failMode)
		return 2
	}
	kinds, err := store.ParseBackends(*backends)
	if err != nil {
		fmt.Fprintf(errw, "polystore: %v\n", err)
		return 2
	}
	if *nruns < 1 {
		fmt.Fprintf(errw, "polystore: -runs must be >= 1, got %d\n", *nruns)
		return 2
	}
	if *csv && *jsonOut {
		fmt.Fprintln(errw, "polystore: -csv and -json are mutually exclusive")
		return 2
	}

	cfg := store.DefaultConfig()
	cfg.FatTreeK = *k
	cfg.Replicas = *replicas
	cfg.Objects = *objects
	cfg.ObjectBytes = *bytes
	cfg.Requests = *requests
	cfg.ZipfSkew = *zipf
	cfg.PutFrac = *putfrac
	cfg.LoadFactor = *load
	cfg.Lambda = *lambda
	cfg.FailMode = mode
	cfg.FailFrac = *failfrac
	cfg.Seed = *seed
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(errw, "polystore: %v\n", err)
		return 2
	}

	if *nruns > 1 || *jsonOut {
		// The multi-seed path: the cluster template repeated over
		// derived sub-seeds per backend, aggregated by the sweep engine.
		cells, err := harness.SweepParams{}.Cells(harness.Storage{Cluster: cfg}, kinds)
		if err != nil {
			fmt.Fprintf(errw, "polystore: %v\n", err)
			return 2
		}
		m := sweep.Matrix{Cells: cells, Seeds: *nruns, BaseSeed: cfg.Seed, Parallelism: *parallel}
		return m.Emit("polystore", sweep.Format(*csv, *jsonOut), out, errw)
	}

	results, err := harness.RunEach(harness.Storage{Cluster: cfg}, kinds, cfg.Seed, harness.Observers{}, *parallel)
	if err != nil {
		fmt.Fprintf(errw, "polystore: %v\n", err)
		return 1
	}
	runs := make([]harness.StorageRun, len(results))
	for i, r := range results {
		runs[i] = r.Detail.(harness.StorageRun)
	}
	if *csv {
		writeCSV(out, runs)
	} else {
		writeTable(out, cfg, runs)
	}
	return 0
}

func writeTable(w io.Writer, cfg store.Config, runs []harness.StorageRun) {
	fmt.Fprintf(w, "== PolyStore cluster ==\n")
	fmt.Fprintf(w, "k=%d (%d hosts), %d objects x %d KB, R=%d, zipf=%.2f, %d requests (%.0f%% PUT), fail=%v\n\n",
		cfg.FatTreeK, cfg.Hosts(), cfg.Objects, cfg.ObjectBytes>>10, cfg.Replicas,
		cfg.ZipfSkew, cfg.Requests, cfg.PutFrac*100, cfg.FailMode)
	fmt.Fprintf(w, "%-11s %9s %9s %9s %9s %9s %9s %9s\n",
		"backend", "GET Gbps", "GETp50ms", "GETp99ms", "PUT Gbps", "PUTp99ms", "recovery", "interfere")
	for _, r := range runs {
		fmt.Fprintf(w, "%-11s %9.3f %9.2f %9.2f %9.3f %9.2f %9s %9s\n",
			r.Backend,
			r.GetGoodput.Mean, r.GetFCT.P50*1e3, r.GetFCT.P99*1e3,
			r.PutGoodput.Mean, r.PutFCT.P99*1e3,
			recoveryLabel(r), interferenceLabel(r))
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		rec := r.Result.Recovery
		if rec.Mode == store.FailNone {
			continue
		}
		fmt.Fprintf(w, "%s recovery: %d hosts down at %v, %d replicas lost, %d repaired (%d unrepairable), full replication %v after %v\n",
			r.Backend, len(rec.FailedHosts), rec.InjectedAt, rec.LostReplicas,
			rec.Repaired, rec.Unrepairable, rec.FullyReplicated, rec.Duration())
		if r.Result.SkippedGets > 0 {
			fmt.Fprintf(w, "%s: %d GETs found no alive replica\n", r.Backend, r.Result.SkippedGets)
		}
	}
}

// recoveryLabel renders the recovery duration, or "-" for no-failure
// runs.
func recoveryLabel(r harness.StorageRun) string {
	rec := r.Result.Recovery
	if rec.Mode == store.FailNone {
		return "-"
	}
	return fmt.Sprintf("%.0fms", rec.Duration().Seconds()*1e3)
}

// interferenceLabel renders the storm-interference ratio, or "-" when
// it could not be measured.
func interferenceLabel(r harness.StorageRun) string {
	ratio, ok := r.Interference()
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2fx", ratio)
}

func writeCSV(w io.Writer, runs []harness.StorageRun) {
	fmt.Fprintln(w, "backend,get_gbps_mean,get_fct_p50_s,get_fct_p95_s,get_fct_p99_s,put_gbps_mean,put_fct_p99_s,recovery_s,interference,repaired,skipped_gets")
	for _, r := range runs {
		rec := r.Result.Recovery
		interferenceCSV := "" // empty field when unmeasured
		if ratio, ok := r.Interference(); ok {
			interferenceCSV = fmt.Sprintf("%.4f", ratio)
		}
		fmt.Fprintf(w, "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s,%d,%d\n",
			r.Backend,
			r.GetGoodput.Mean, r.GetFCT.P50, r.GetFCT.P95, r.GetFCT.P99,
			r.PutGoodput.Mean, r.PutFCT.P99,
			rec.Duration().Seconds(), interferenceCSV, rec.Repaired, r.Result.SkippedGets)
	}
}
