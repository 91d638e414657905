// Storage cluster: the paper's motivating GFS-style scenario, run as
// a whole system instead of a single hand-picked transfer. PolyStore
// simulates a replicated object store on a fat-tree: a Zipf-popular
// catalogue placed R-way across racks, a Poisson stream of client GETs
// (many-to-one multi-source fetches) and PUTs (one-to-many multicast
// replication), and a rack failure mid-run whose re-replication storm
// the cluster must absorb. The same workload runs over Polyraptor and
// the TCP multi-unicast baseline — in parallel, one fabric each — and
// the contrast is printed.
//
// Run with:
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
)

func main() {
	cfg := store.DefaultConfig()
	cfg.FatTreeK = 6 // 54 hosts, 18 racks
	cfg.Objects = 120
	cfg.ObjectBytes = 1 << 20
	cfg.Requests = 300
	cfg.FailMode = store.FailRack

	if err := demo(os.Stdout, cfg); err != nil {
		log.Fatal(err)
	}
}

// demo runs the cluster under Polyraptor and TCP and prints each
// backend's goodput, tail latency and recovery summary.
func demo(w io.Writer, cfg store.Config) error {
	fmt.Fprintf(w, "PolyStore: %d objects x %d MB, R=%d, zipf %.1f, on %d hosts; %v failure mid-run\n\n",
		cfg.Objects, cfg.ObjectBytes>>20, cfg.Replicas, cfg.ZipfSkew, cfg.Hosts(), cfg.FailMode)

	results, err := harness.RunEach(harness.Storage{Cluster: cfg},
		[]store.BackendKind{store.BackendPolyraptor, store.BackendTCP}, cfg.Seed, harness.Observers{}, 0)
	if err != nil {
		return err
	}

	for _, res := range results {
		r := res.Detail.(harness.StorageRun)
		rec := r.Result.Recovery
		fmt.Fprintf(w, "%s:\n", r.Backend)
		fmt.Fprintf(w, "  GETs: %.3f Gbps mean, FCT p50 %.2f ms / p99 %.2f ms (%d served)\n",
			r.GetGoodput.Mean, r.GetFCT.P50*1e3, r.GetFCT.P99*1e3, r.GetFCT.N)
		fmt.Fprintf(w, "  PUTs: %.3f Gbps mean session goodput (%d x %d-way replication)\n",
			r.PutGoodput.Mean, r.PutFCT.N, cfg.Replicas)
		if rec.Mode != store.FailNone {
			fmt.Fprintf(w, "  %v failure: %d replicas lost, %d repaired, full replication after %v\n",
				rec.Mode, rec.LostReplicas, rec.Repaired, rec.Duration())
		}
		if ratio, ok := r.Interference(); ok {
			fmt.Fprintf(w, "  storm interference: GET latency %.2f ms -> %.2f ms (%.2fx)\n",
				r.GetFCTBefore.Mean*1e3, r.GetFCTDuring.Mean*1e3, ratio)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Polyraptor sends one coded multicast stream per PUT and pulls each GET")
	fmt.Fprintln(w, "from all replicas at once; TCP pushes R full copies and fetches 1/R")
	fmt.Fprintln(w, "shares over hash-pinned paths — the gap above is the paper's argument.")
	return nil
}
