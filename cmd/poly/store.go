package main

import (
	"fmt"
	"io"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
)

// runStore runs the PolyStore experiment: a simulated GFS/HDFS-style
// replicated object store on a fat-tree fabric, PUTs replicated
// one-to-many and GETs assembled many-to-one, optionally with a server
// or rack failure and its re-replication storm mid-run.
func runStore(c *cli, args []string) int {
	p := harness.DefaultSweepParams()
	st := &p.Storage
	st.Flags(c.fs)
	c.flags(runFlags | formatFlag)
	if code := c.parse(args); code != proceed {
		return code
	}
	table := func(w io.Writer, runs []harness.StorageRun) { storeTable(w, st.Cluster, runs) }
	return drive(c, *st, p, table, storeCSV, false)
}

func storeTable(w io.Writer, cfg store.Config, runs []harness.StorageRun) {
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

func storeCSV(w io.Writer, runs []harness.StorageRun) {
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
