package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"polyraptor/internal/stats"
)

// adversarialSamples builds the distributions the quantile error bound
// is tested against: bimodal (two widely separated modes), heavy-tail
// (Pareto), and single-bucket (all samples inside one log-linear
// bucket), plus uniform as a baseline.
func adversarialSamples(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n := 2000
	out := map[string][]float64{}

	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 0.001 * (1 + 0.1*rng.Float64())
		} else {
			bimodal[i] = 10 * (1 + 0.1*rng.Float64())
		}
	}
	out["bimodal"] = bimodal

	heavy := make([]float64, n)
	for i := range heavy {
		u := rng.Float64()
		if u < 1e-6 {
			u = 1e-6
		}
		heavy[i] = 1e-3 / math.Pow(u, 1/1.1) // Pareto(alpha=1.1)
	}
	out["heavy-tail"] = heavy

	// One bucket at 1.0 covers [1, 1+1/64); keep every sample inside.
	single := make([]float64, n)
	for i := range single {
		single[i] = 1.002 + 0.012*rng.Float64()
	}
	out["single-bucket"] = single

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 0.5 + rng.Float64()
	}
	out["uniform"] = uniform
	return out
}

func histOf(samples []float64) *Histogram {
	h := NewHistogram()
	for _, v := range samples {
		h.Record(v)
	}
	return h
}

func TestQuantileRelativeErrorBound(t *testing.T) {
	for name, samples := range adversarialSamples(t) {
		h := histOf(samples)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
			exact := stats.Percentile(samples, p)
			got := h.Quantile(p)
			if err := math.Abs(got - exact); err > RelError*exact+1e-12 {
				t.Errorf("%s: Quantile(%g) = %g, exact %g: error %g exceeds bound %g",
					name, p, got, exact, err, RelError*exact)
			}
		}
		// The extreme quantiles are exact (min/max are tracked exactly).
		if got, exact := h.Quantile(0), stats.Percentile(samples, 0); got != exact {
			t.Errorf("%s: Quantile(0) = %g, want exact min %g", name, got, exact)
		}
		if got, exact := h.Quantile(100), stats.Percentile(samples, 100); got != exact {
			t.Errorf("%s: Quantile(100) = %g, want exact max %g", name, got, exact)
		}
	}
}

func TestMeanWithinBound(t *testing.T) {
	for name, samples := range adversarialSamples(t) {
		h := histOf(samples)
		exact := stats.Mean(samples)
		if got := h.Mean(); math.Abs(got-exact) > RelError*exact {
			t.Errorf("%s: Mean = %g, exact %g (bound %g)", name, got, exact, RelError*exact)
		}
	}
}

func snapshotBytes(t *testing.T, h *Histogram) []byte {
	t.Helper()
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return b
}

// TestMergeOrderByteIdentical is the mergeability property test: split
// a sample into parts, merge the part-histograms in many different
// orders and groupings, and demand byte-identical snapshots — the
// property that keeps parallel sweep aggregation deterministic.
func TestMergeOrderByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const parts = 7
	hs := make([]*Histogram, parts)
	for i := range hs {
		hs[i] = NewHistogram()
	}
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64() * 3) // log-normal spanning many octaves
		hs[rng.Intn(parts)].Record(v)
	}
	hs[0].Record(0)
	hs[1].Record(math.NaN())
	hs[2].Record(-1)

	mergeIn := func(order []int) []byte {
		acc := NewHistogram()
		for _, i := range order {
			acc.Merge(hs[i])
		}
		return snapshotBytes(t, acc)
	}
	want := mergeIn([]int{0, 1, 2, 3, 4, 5, 6})
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(parts)
		if got := mergeIn(order); string(got) != string(want) {
			t.Fatalf("merge order %v: snapshot differs\n got: %s\nwant: %s", order, got, want)
		}
	}
	// Associativity: tree-shaped grouping (a+(b+c)) vs flat.
	left := NewHistogram()
	left.Merge(hs[0])
	left.Merge(hs[1])
	right := NewHistogram()
	right.Merge(hs[2])
	for i := 3; i < parts; i++ {
		right.Merge(hs[i])
	}
	tree := NewHistogram()
	tree.Merge(left)
	tree.Merge(right)
	if got := snapshotBytes(t, tree); string(got) != string(want) {
		t.Fatalf("tree-grouped merge: snapshot differs from flat merge")
	}
}

func TestRecordEdgeCases(t *testing.T) {
	h := NewHistogram()
	h.Record(math.NaN())
	if h.Count() != 0 || h.Snapshot().NaNs != 1 {
		t.Fatalf("NaN must be skipped: count=%d nans=%d", h.Count(), h.Snapshot().NaNs)
	}
	h.Record(0)
	h.Record(-3)
	h.Record(1e-300) // underflow: clamps to the lowest bucket
	h.Record(1e300)  // overflow: clamps to the highest bucket
	h.Record(math.Inf(1))
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Min() != -3 {
		t.Errorf("Min = %g, want -3 (exact, not clamped)", h.Min())
	}
	if h.Max() != maxTrackable {
		t.Errorf("Max = %g, want clamp bound %g", h.Max(), maxTrackable)
	}
	if q := h.Quantile(0); q != -3 {
		t.Errorf("Quantile(0) = %g, want -3", q)
	}
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatalf("snapshot with clamped/zero samples must marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty snapshot JSON")
	}
}

func TestEmptyAndNilHistogram(t *testing.T) {
	var nilH *Histogram
	nilH.Record(1)
	nilH.Merge(NewHistogram())
	if nilH.Count() != 0 || nilH.Mean() != 0 || nilH.Quantile(50) != 0 ||
		nilH.Min() != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram accessors must return zeros")
	}
	if nilH.Snapshot() != nil {
		t.Fatal("nil histogram snapshot must be nil")
	}
	empty := NewHistogram()
	if empty.Quantile(50) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if _, err := json.Marshal(empty.Snapshot()); err != nil {
		t.Fatalf("empty snapshot must marshal (no infinities): %v", err)
	}
}

func TestRecordAndMergeAllocFree(t *testing.T) {
	h := NewHistogram()
	v := 0.123
	if allocs := testing.AllocsPerRun(200, func() {
		h.Record(v)
		v *= 1.37
		if v > 1e9 {
			v = 1e-6
		}
	}); allocs != 0 {
		t.Errorf("Record allocates %v per op, want 0", allocs)
	}
	a, b := histOf([]float64{1, 2, 3}), histOf([]float64{4, 5, 6})
	if allocs := testing.AllocsPerRun(100, func() { a.Merge(b) }); allocs != 0 {
		t.Errorf("Merge allocates %v per op, want 0", allocs)
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	for name, samples := range adversarialSamples(t) {
		h := histOf(samples)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 0.5 {
			q := h.Quantile(p)
			if q < prev {
				t.Fatalf("%s: Quantile not monotone at p=%g: %g < %g", name, p, q, prev)
			}
			prev = q
		}
	}
}
