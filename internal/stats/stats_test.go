package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single sample stddev must be 0")
	}
	// Known case: {2,4,4,4,5,5,7,9} has sample stddev ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestCI95FiveSeeds(t *testing.T) {
	// Five repetitions (the paper's setup): t(4df) = 2.776.
	xs := []float64{1, 2, 3, 4, 5}
	want := 2.776 * StdDev(xs) / math.Sqrt(5)
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI95 of one sample must be 0")
	}
}

func TestCI95LargeN(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	want := 1.960 * StdDev(xs) / 10
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95(large n) = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestRankSeries(t *testing.T) {
	got := RankSeries([]float64{0.3, 0.9, 0.5})
	if got[0] != 0.9 || got[1] != 0.5 || got[2] != 0.3 {
		t.Fatalf("RankSeries = %v", got)
	}
}

func TestRankSeriesSortedDescendingQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		r := RankSeries(xs)
		for i := 1; i < len(r); i++ {
			if r[i] > r[i-1] {
				return false
			}
		}
		return len(r) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := Downsample(xs, 10)
	if len(d) != 10 {
		t.Fatalf("len = %d", len(d))
	}
	if d[0] != 0 || d[9] != 99 {
		t.Fatalf("endpoints = %v, %v", d[0], d[9])
	}
	if got := Downsample(xs, 200); len(got) != 100 {
		t.Fatal("Downsample should not upsample")
	}
	if got := Downsample(xs, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Downsample(xs, 1) = %v, want [0]", got)
	}
	if got := Downsample(xs, 2); len(got) != 2 || got[0] != 0 || got[1] != 99 {
		t.Fatalf("Downsample(xs, 2) = %v, want [0 99]", got)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("rank", []string{"0", "1"}, []Series{
		{Name: "RQ", Points: []float64{0.95, 0.90}},
		{Name: "TCP", Points: []float64{0.80}},
	})
	if !strings.Contains(out, "RQ") || !strings.Contains(out, "TCP") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.9500") {
		t.Fatalf("missing value:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for short series:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	out := RenderCSV("x", []string{"a", "b"}, []Series{{Name: "s", Points: []float64{1, 2}}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "x,s" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "a,1.000000" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %g", s.Mean)
	}
	if s.P50 != Percentile(xs, 50) || s.P95 != Percentile(xs, 95) || s.P99 != Percentile(xs, 99) {
		t.Fatalf("percentiles disagree with Percentile(): %+v", s)
	}
	if !(s.P50 < s.P95 && s.P95 < s.P99) {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
}

// TestPercentileSortedEdges pins the boundary behaviour of the sorted
// fast path: p <= 0 is the minimum, p >= 100 the maximum, a single
// sample is every percentile, and an empty sample is 0.
func TestPercentileSortedEdges(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, p := range []float64{-10, 0} {
		if got := PercentileSorted(s, p); got != 1 {
			t.Fatalf("PercentileSorted(s, %g) = %g, want 1", p, got)
		}
	}
	for _, p := range []float64{100, 250} {
		if got := PercentileSorted(s, p); got != 4 {
			t.Fatalf("PercentileSorted(s, %g) = %g, want 4", p, got)
		}
	}
	one := []float64{7}
	for _, p := range []float64{-1, 0, 13, 50, 99, 100, 200} {
		if got := PercentileSorted(one, p); got != 7 {
			t.Fatalf("PercentileSorted([7], %g) = %g, want 7", p, got)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Fatalf("PercentileSorted(nil, 50) = %g, want 0", got)
	}
}

// TestPercentileEdges: the copying wrapper agrees with the fast path
// at the same boundaries.
func TestPercentileEdges(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil, 50) = %g, want 0", got)
	}
	if got := Percentile([]float64{5}, 0); got != 5 {
		t.Fatalf("Percentile([5], 0) = %g, want 5", got)
	}
	if got := Percentile([]float64{3, 1, 2}, 100); got != 3 {
		t.Fatalf("Percentile(unsorted, 100) = %g, want 3", got)
	}
	if got := Percentile([]float64{3, 1, 2}, 0); got != 1 {
		t.Fatalf("Percentile(unsorted, 0) = %g, want 1", got)
	}
}

// TestSummarizeSorted: the fast path equals Summarize without
// re-sorting, and does not copy (documented contract: input must
// already be sorted).
func TestSummarizeSorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	want := Summarize(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got := SummarizeSorted(sorted); got != want {
		t.Fatalf("SummarizeSorted = %+v, want %+v", got, want)
	}
	if s := SummarizeSorted(nil); s != (Summary{}) {
		t.Fatalf("SummarizeSorted(nil) = %+v, want zero", s)
	}
	if s := SummarizeSorted([]float64{4}); s.N != 1 || s.Min != 4 || s.P50 != 4 || s.P99 != 4 || s.Max != 4 {
		t.Fatalf("SummarizeSorted([4]) = %+v", s)
	}
}

// TestRenderTableNaN: NaN points render as "-" so sparse sweep tables
// stay aligned.
func TestRenderTableNaN(t *testing.T) {
	out := RenderTable("x", []string{"a", "b"}, []Series{
		{Name: "s", Points: []float64{math.NaN(), 2}},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[1], "-") || strings.Contains(lines[1], "NaN") {
		t.Fatalf("NaN row = %q, want '-'", lines[1])
	}
	if !strings.Contains(lines[2], "2.0000") {
		t.Fatalf("numeric row = %q", lines[2])
	}
}

// TestNaNSkipping: one stalled-flow NaN must not corrupt percentiles,
// means or confidence intervals.
func TestNaNSkipping(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3, 4}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Errorf("Percentile with NaN = %g, want 2.5", got)
	}
	s := Summarize(xs)
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summarize with NaN = %+v, want N=4 mean=2.5", s)
	}
	if got := CI95(xs); math.IsNaN(got) || got == 0 {
		t.Errorf("CI95 with NaN = %g, want finite nonzero", got)
	}
	clean := []float64{1, 2, 3, 4}
	if got, want := CI95(xs), CI95(clean); got != want {
		t.Errorf("CI95 with NaN = %g, want %g (NaN dropped)", got, want)
	}
	if all := Summarize([]float64{math.NaN(), math.NaN()}); all.N != 0 {
		t.Errorf("all-NaN Summarize = %+v, want zero Summary", all)
	}
}

func TestDropNaN(t *testing.T) {
	clean := []float64{3, 1, 2}
	if got := DropNaN(clean); &got[0] != &clean[0] {
		t.Error("DropNaN must not copy a clean slice")
	}
	dirty := []float64{3, math.NaN(), 2}
	got := DropNaN(dirty)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("DropNaN = %v", got)
	}
	if !math.IsNaN(dirty[1]) {
		t.Error("DropNaN must not modify its input")
	}
}
