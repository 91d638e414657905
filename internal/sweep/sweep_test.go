package sweep

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"polyraptor/internal/metrics"
)

// fakeRunner records the seeds it was called with and returns metrics
// derived purely from the seed, so serial and parallel sweeps must
// agree exactly.
type fakeRunner struct {
	mu    sync.Mutex
	seeds []int64
}

func (f *fakeRunner) Run(seed int64) (Metrics, Hists, error) {
	f.mu.Lock()
	f.seeds = append(f.seeds, seed)
	f.mu.Unlock()
	return Metrics{
		"value":  float64(seed % 1000),
		"square": float64((seed % 100) * (seed % 100)),
	}, nil, nil
}

// scalarRun adapts a metrics-only function to Cell.Run.
func scalarRun(f func(seed int64) (Metrics, error)) func(int64) (Metrics, Hists, error) {
	return func(seed int64) (Metrics, Hists, error) {
		m, err := f(seed)
		return m, nil, err
	}
}

func testMatrix(par int) (Matrix, []*fakeRunner) {
	fs := []*fakeRunner{{}, {}, {}}
	return Matrix{
		Cells: []Cell{
			{Scenario: "s1", Backend: "b1", Run: fs[0].Run},
			{Scenario: "s1", Backend: "b2", Run: fs[1].Run},
			{Scenario: "s2", Backend: "b1", Params: map[string]string{"k": "4"}, Run: fs[2].Run},
		},
		Seeds:       5,
		BaseSeed:    7,
		Parallelism: par,
	}, fs
}

// TestRunSerialParallelIdentical: the acceptance property — aggregated
// JSON is byte-identical at parallelism 1 and parallelism 8.
func TestRunSerialParallelIdentical(t *testing.T) {
	ms, _ := testMatrix(1)
	serial, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := testMatrix(8)
	parallel, err := mp.Run()
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel JSON differ:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatal("serial and parallel CSV differ")
	}
	if serial.Table(nil) != parallel.Table(nil) {
		t.Fatal("serial and parallel tables differ")
	}
}

// TestRunSeedsAreDerived: every cell sees exactly the SubSeeds stream,
// once per repetition.
func TestRunSeedsAreDerived(t *testing.T) {
	m, fs := testMatrix(4)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, s := range SubSeeds(m.BaseSeed, m.Seeds) {
		want[s] = true
	}
	for i, fr := range fs {
		if len(fr.seeds) != m.Seeds {
			t.Fatalf("cell %d ran %d times, want %d", i, len(fr.seeds), m.Seeds)
		}
		for _, s := range fr.seeds {
			if !want[s] {
				t.Fatalf("cell %d ran with underived seed %d", i, s)
			}
		}
	}
}

// TestRunAggregates: known samples reduce to the right mean and order
// statistics.
func TestRunAggregates(t *testing.T) {
	var rep atomic.Int64
	m := Matrix{
		Cells: []Cell{{Scenario: "s", Backend: "b", Run: scalarRun(func(seed int64) (Metrics, error) {
			// 1, 2, 3, 4, 5 in some order; value independent of seed so
			// parallelism cannot reorder the aggregate.
			return Metrics{"v": float64(rep.Add(1))}, nil
		})}},
		Seeds:       5,
		Parallelism: 1,
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, ok := res.Cells[0].Metric("v")
	if !ok {
		t.Fatal("metric v missing")
	}
	if a.N != 5 || a.Mean != 3 || a.Min != 1 || a.Max != 5 || a.P50 != 3 {
		t.Fatalf("aggregate = %+v, want N=5 mean=3 min=1 p50=3 max=5", a)
	}
	if a.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0", a.CI95)
	}
}

// TestRunMergesHists: a cell's histograms pool across repetitions and
// are summarized from the merged sketch; a run that returns no Hists
// adds nothing, and an empty or nil histogram summarizes to zeros.
func TestRunMergesHists(t *testing.T) {
	m := Matrix{
		Cells: []Cell{{Scenario: "s", Backend: "b", Run: func(seed int64) (Metrics, Hists, error) {
			if seed == SubSeed(3, 2) {
				return Metrics{"v": 1}, nil, nil
			}
			h := metrics.NewHistogram()
			for v := 1; v <= 50; v++ {
				h.Record(float64(v))
			}
			return Metrics{"v": 1}, Hists{"fct_s": h}, nil
		}}},
		Seeds:    3,
		BaseSeed: 3,
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, ok := res.Cells[0].Hist("fct_s")
	if !ok || a.Count != 100 || a.Min != 1 || a.Max != 50 || a.Snapshot.Count != 100 {
		t.Fatalf("pooled fct_s = %+v (present %v), want 100 samples in [1, 50]", a, ok)
	}
	if math.Abs(a.P50-25.5) > 25.5*metrics.RelError || math.Abs(a.Mean-25.5) > 25.5*metrics.RelError {
		t.Errorf("pooled p50 %g, mean %g: want 25.5 within RelError", a.P50, a.Mean)
	}
	for _, h := range []*metrics.Histogram{metrics.NewHistogram(), nil} {
		got := histAggregate("x", h)
		got.Snapshot = nil
		if got != (HistAggregate{Metric: "x"}) {
			t.Errorf("empty/nil histogram aggregate = %+v, want zeros", got)
		}
	}
}

// TestRunRecordsErrorsAndPanics: failing repetitions land in Errors,
// do not poison aggregation, and panics are converted to errors.
func TestRunRecordsErrorsAndPanics(t *testing.T) {
	m := Matrix{
		Cells: []Cell{
			{Scenario: "bad", Backend: "err", Run: scalarRun(func(seed int64) (Metrics, error) {
				return nil, fmt.Errorf("boom %d", seed%2)
			})},
			{Scenario: "bad", Backend: "panic", Run: scalarRun(func(seed int64) (Metrics, error) {
				panic("kaboom")
			})},
			{Scenario: "good", Backend: "ok", Run: scalarRun(func(seed int64) (Metrics, error) {
				return Metrics{"v": 1}, nil
			})},
		},
		Seeds:       3,
		Parallelism: 2,
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Cells[0].Errors); n != 3 {
		t.Fatalf("error cell recorded %d errors, want 3", n)
	}
	if n := len(res.Cells[1].Errors); n != 3 {
		t.Fatalf("panic cell recorded %d errors, want 3", n)
	}
	if !strings.Contains(res.Cells[1].Errors[0], "kaboom") {
		t.Fatalf("panic error = %q", res.Cells[1].Errors[0])
	}
	if a, ok := res.Cells[2].Metric("v"); !ok || a.N != 3 {
		t.Fatalf("good cell aggregate = %+v ok=%v, want N=3", a, ok)
	}
	if len(res.Cells[0].Metrics) != 0 {
		t.Fatal("error cell should have no aggregates")
	}
}

// TestRunValidation: malformed matrices are rejected up front.
func TestRunValidation(t *testing.T) {
	if _, err := (Matrix{Seeds: 1}).Run(); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := (Matrix{Cells: []Cell{{Scenario: "s", Backend: "b", Run: (&fakeRunner{}).Run}}}).Run(); err == nil {
		t.Fatal("Seeds=0 accepted")
	}
	if _, err := (Matrix{Cells: []Cell{{Scenario: "s", Backend: "b"}}, Seeds: 1}).Run(); err == nil {
		t.Fatal("cell without a run function accepted")
	}
}

// TestForEachCoversAllIndices at several parallelism levels, including
// parallelism > n and <= 0 (GOMAXPROCS default).
func TestForEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{-1, 0, 1, 2, 7, 64} {
		n := 23
		var hits [23]atomic.Int64
		ForEach(n, par, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("par=%d: index %d ran %d times", par, i, got)
			}
		}
	}
}

// TestTableMissingMetric: a metric absent from one cell renders as "-"
// without misaligning other rows.
func TestTableMissingMetric(t *testing.T) {
	m := Matrix{
		Cells: []Cell{
			{Scenario: "a", Backend: "x", Run: scalarRun(func(int64) (Metrics, error) {
				return Metrics{"only_a": 1}, nil
			})},
			{Scenario: "b", Backend: "x", Run: scalarRun(func(int64) (Metrics, error) {
				return Metrics{"shared": 2}, nil
			})},
		},
		Seeds:       2,
		Parallelism: 1,
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table(nil)
	for _, want := range []string{"a/x", "b/x", "only_a", "shared", "-"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestForEachPanicIsRecoverable: a job panicking on a worker goroutine
// must not abort the process — the lowest-index panic re-raises on the
// caller's goroutine, where recover works, and every other job still
// runs.
func TestForEachPanicIsRecoverable(t *testing.T) {
	for _, par := range []int{1, 4} {
		var ran [8]atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			ForEach(8, par, func(i int) {
				ran[i].Add(1)
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("job %d", i))
				}
			})
			return nil
		}()
		if par == 1 {
			// Serial path: panic propagates at first occurrence.
			if got != "job 2" {
				t.Fatalf("par=1: recovered %v, want job 2", got)
			}
			continue
		}
		if got != "job 2" {
			t.Fatalf("par=%d: recovered %v, want lowest-index panic job 2", par, got)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("par=%d: job %d ran %d times after sibling panic", par, i, ran[i].Load())
			}
		}
	}
}
