package harness

import (
	"testing"

	"polyraptor/internal/store"
)

// TestRunStorageCluster runs the k=4 storage-cluster experiment end to
// end — Polyraptor vs the TCP multi-unicast baseline with a mid-run
// rack failure — and checks the paper's headline ordering: the
// rateless, replica-exploiting transport serves foreground GETs at
// least as fast as TCP, and recovery restores full R-way replication.
func TestRunStorageCluster(t *testing.T) {
	results, err := RunEach(Storage{Cluster: store.DefaultConfig()},
		[]store.BackendKind{store.BackendPolyraptor, store.BackendTCP}, store.DefaultConfig().Seed, Observers{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StorageRun{}
	for _, res := range results {
		r := res.Detail.(StorageRun)
		byName[r.Backend] = r
		if r.GetGoodput.N == 0 || r.PutGoodput.N == 0 {
			t.Fatalf("%s: empty GET/PUT samples (%d/%d)", r.Backend, r.GetGoodput.N, r.PutGoodput.N)
		}
		rec := r.Result.Recovery
		if !rec.FullyReplicated || rec.Repaired != rec.LostReplicas {
			t.Fatalf("%s: recovery incomplete: %+v", r.Backend, rec)
		}
		if r.Result.SkippedGets > r.GetGoodput.N/4 {
			t.Fatalf("%s: %d skipped GETs vs %d served — availability model broken",
				r.Backend, r.Result.SkippedGets, r.GetGoodput.N)
		}
	}
	rq, tcp := byName["polyraptor"], byName["tcp"]
	if rq.Backend == "" || tcp.Backend == "" {
		t.Fatalf("missing backends: %v", byName)
	}
	if rq.GetGoodput.Mean < tcp.GetGoodput.Mean {
		t.Fatalf("Polyraptor mean GET goodput %.3f Gbps below TCP's %.3f Gbps",
			rq.GetGoodput.Mean, tcp.GetGoodput.Mean)
	}
	if rq.PutGoodput.Mean <= tcp.PutGoodput.Mean {
		t.Fatalf("Polyraptor mean PUT goodput %.3f Gbps not above TCP multi-unicast's %.3f Gbps",
			rq.PutGoodput.Mean, tcp.PutGoodput.Mean)
	}
}
