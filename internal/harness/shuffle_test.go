package harness

import (
	"testing"

	"polyraptor/internal/store"
)

func tinyShuffleOptions() ShuffleOptions {
	return ShuffleOptions{
		FatTreeK:     4,
		Mappers:      3,
		Reducers:     4,
		BytesPerPair: 32 << 10,
		Skew:         0.9,
	}
}

func TestShuffleOnAllBackends(t *testing.T) {
	// 8 mappers into each reducer is past TCP's incast knee, where the
	// pattern actually stresses the transport (a 3x4 matrix is too
	// gentle: uncongested TCP wins on pure RTT).
	opt := tinyShuffleOptions()
	opt.Mappers = 8
	opt.BytesPerPair = 64 << 10
	results, err := RunEach(opt, allBackends, 1, Observers{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		r := res.Detail.(ShuffleRun)
		if r.PairFCT.N != opt.Mappers*opt.Reducers {
			t.Fatalf("%s: %d pair FCTs, want %d", r.Backend, r.PairFCT.N, opt.Mappers*opt.Reducers)
		}
		if r.CompletionTime <= 0 || r.GoodputGbps <= 0 {
			t.Fatalf("%s: completion %v s, goodput %v Gbps", r.Backend, r.CompletionTime, r.GoodputGbps)
		}
		if r.CompletionTime < r.PairFCT.Max {
			t.Fatalf("%s: completion %v < slowest pair %v", r.Backend, r.CompletionTime, r.PairFCT.Max)
		}
		if r.TotalBytes <= 0 {
			t.Fatalf("%s: total bytes %d", r.Backend, r.TotalBytes)
		}
	}
}

func TestShuffleCellRejectsImpossibleMatrix(t *testing.T) {
	p := tinySweepParams()
	p.Shuffle.Mappers = 20 // 20+4 > 16 hosts on k=4
	if _, err := newSweepCell("shuffle", store.BackendTCP, p); err == nil {
		t.Fatal("oversized shuffle matrix accepted")
	}
	p = tinySweepParams()
	p.Shuffle.StragglerFactor = 0.5
	if _, err := newSweepCell("shuffle", store.BackendTCP, p); err == nil {
		t.Fatal("fractional straggler factor accepted")
	}
}
