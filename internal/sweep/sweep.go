// Package sweep is the experiment-sweep engine: it takes a declarative
// run matrix (cells = backend x scenario, each with a run function),
// executes the independent discrete-event simulations concurrently on a
// worker pool, and aggregates per-cell metrics across repetition seeds
// into mean, 95% confidence interval and tail percentiles.
//
// Determinism is the design constraint everything else serves. Each
// (cell, repetition) run gets its own SplitMix-derived sub-seed
// (SubSeed) and its own simulation instance — no RNG state is shared
// across goroutines — and results are written into pre-assigned slots,
// so a sweep's aggregated output is byte-identical whether it runs on
// one worker or on GOMAXPROCS workers.
package sweep

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"polyraptor/internal/metrics"
	"polyraptor/internal/stats"
)

// Metrics is the named scalar outputs of one run. A run may omit a
// metric on some repetitions (e.g. an interference ratio that could
// not be measured); aggregation then uses the repetitions that
// reported it.
type Metrics map[string]float64

// Hists is the histogram-valued output of one run, keyed by metric
// name: whole per-sample distributions (per-flow FCT, goodput, queue
// depth) rather than pre-reduced scalars. Aggregation merges each
// metric's histograms across repetitions in repetition order
// (histogram merge is associative and commutative, so the result is
// byte-identical at any parallelism) instead of concatenating raw
// samples. Returned histograms are owned by the sweep and must not be
// mutated after return.
type Hists map[string]*metrics.Histogram

// Cell is one point of the run matrix: a scenario under a backend,
// plus any extra parameters worth echoing in reports.
type Cell struct {
	// Scenario names the workload (e.g. "incast", "storage").
	Scenario string
	// Backend names the transport under test (e.g. "polyraptor").
	Backend string
	// Params are extra axis values, rendered sorted by key.
	Params map[string]string
	// Replay, when non-nil, returns the command line that reruns the
	// cell at a matrix's base seed and seed count (CellResult.Replay).
	Replay func(baseSeed int64, seeds int) string
	// Run executes the cell for one derived seed. It must be safe for
	// concurrent calls: every call builds its own simulation state and
	// shares nothing mutable. An unmetered run returns nil Hists.
	Run func(seed int64) (Metrics, Hists, error)
}

// Name returns the cell's display label: scenario/backend plus sorted
// params.
func (c Cell) Name() string {
	s := c.Scenario + "/" + c.Backend
	for _, k := range sortedKeys(c.Params) {
		s += fmt.Sprintf(" %s=%s", k, c.Params[k])
	}
	return s
}

// Matrix is a declarative sweep: cells x seeds, run with the given
// parallelism.
type Matrix struct {
	// Cells are the matrix points.
	Cells []Cell
	// Seeds is the repetition count per cell (the paper uses 5).
	Seeds int
	// BaseSeed anchors sub-seed derivation.
	BaseSeed int64
	// Parallelism caps concurrent runs; <= 0 means GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, is invoked once per completed
	// (cell, repetition) run. Calls are serialised under a mutex but
	// arrive in completion order, which depends on scheduling — and
	// Elapsed/ETA are wall-clock — so route them to stderr or a log,
	// never into the deterministic result stream.
	Progress func(p Progress)
}

// Progress describes one completed run of a sweep, for -v style
// reporting during long ladders.
type Progress struct {
	// Done counts finished runs; Total is cells x seeds.
	Done, Total int
	// Cell and Seed identify the run that just finished.
	Cell Cell
	// Seed is the derived sub-seed of the finished repetition.
	Seed int64
	// Elapsed is wall-clock time since Matrix.Run started; ETA
	// extrapolates the remaining runs at the observed rate.
	Elapsed, ETA time.Duration
}

// Aggregate is one metric reduced across repetitions.
type Aggregate struct {
	// Metric is the metric name.
	Metric string `json:"metric"`
	// N is the number of repetitions that reported the metric.
	N int `json:"n"`
	// Mean is the arithmetic mean; CI95 the Student-t 95% confidence
	// half-width over the N repetitions.
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	// Min, P50, P95, P99 and Max are order statistics over the N
	// repetitions.
	Min float64 `json:"min"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// HistAggregate is one histogram-valued metric merged across a cell's
// repetitions. Unlike Aggregate — order statistics over per-repetition
// scalars — its percentiles are over the pooled per-sample
// distribution, read from the merged histogram with bounded relative
// error (metrics.RelError).
type HistAggregate struct {
	// Metric is the metric name.
	Metric string `json:"metric"`
	// Count is the pooled sample count across repetitions.
	Count uint64 `json:"count"`
	// Mean, Min, P50, P95, P99, Max summarize the pooled distribution.
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	// Snapshot is the merged histogram itself (sparse), so downstream
	// consumers can re-merge or re-quantile without the raw samples.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
}

// CellResult is one cell's aggregated output.
type CellResult struct {
	Scenario string            `json:"scenario"`
	Backend  string            `json:"backend"`
	Replay   string            `json:"replay,omitempty"`
	Params   map[string]string `json:"params,omitempty"`
	// Seeds are the derived per-repetition sub-seeds, in repetition
	// order (identical for every cell, so backends pair up).
	Seeds []int64 `json:"seeds"`
	// Metrics are the aggregates, sorted by metric name.
	Metrics []Aggregate `json:"metrics"`
	// Hists are the histogram-valued metrics of a metered cell, merged across repetitions in repetition order and sorted by
	// metric name.
	Hists []HistAggregate `json:"hists,omitempty"`
	// Samples holds the raw per-repetition values behind each
	// aggregate, in repetition order (repetitions that errored or did
	// not report the metric are skipped).
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Errors records failed repetitions as "rep N: message".
	Errors []string `json:"errors,omitempty"`
}

// Result is a completed sweep.
type Result struct {
	BaseSeed int64        `json:"base_seed"`
	Seeds    int          `json:"seeds"`
	Cells    []CellResult `json:"cells"`
}

// ForEach runs n independent jobs on a pool of `parallelism` workers
// (<= 0 means GOMAXPROCS) and returns when all have finished. Jobs
// receive their index and must write results only to their own
// pre-assigned slots; under that contract the outcome is independent
// of scheduling order. A panicking job does not kill the worker
// goroutine (which would abort the process unrecoverably): the
// lowest-index panic is re-raised on the caller's goroutine after all
// jobs finish, so callers can recover exactly as they could from a
// serial loop.
func ForEach(n, parallelism int, job func(i int)) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	panics := make([]any, n)
	runJob := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		job(i)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Run executes the matrix and aggregates each cell across its
// repetition seeds. A repetition that returns an error (or panics —
// the harness panics on malformed experiments) is recorded in the
// cell's Errors and excluded from aggregation; Run itself fails only
// on an invalid matrix.
func (m Matrix) Run() (*Result, error) {
	if len(m.Cells) == 0 {
		return nil, fmt.Errorf("sweep: matrix has no cells")
	}
	if m.Seeds < 1 {
		return nil, fmt.Errorf("sweep: Seeds must be >= 1, got %d", m.Seeds)
	}
	for i, c := range m.Cells {
		if c.Run == nil {
			return nil, fmt.Errorf("sweep: cell %d (%s) has no run function", i, c.Name())
		}
	}
	seeds := SubSeeds(m.BaseSeed, m.Seeds)

	// One pre-assigned slot per (cell, rep): workers never contend and
	// aggregation order is independent of completion order.
	outs := make([]runOut, len(m.Cells)*m.Seeds)
	var progressMu sync.Mutex
	finished := 0
	// Wall clock feeds only the Progress callback (stderr reporting),
	// never the result stream, so sweep determinism is untouched.
	start := time.Now() //polyvet:allow simclock elapsed/ETA progress reporting only; never enters results
	ForEach(len(outs), m.Parallelism, func(i int) {
		cell := m.Cells[i/m.Seeds]
		seed := seeds[i%m.Seeds]
		outs[i] = runCell(cell, seed)
		if m.Progress != nil {
			progressMu.Lock()
			finished++
			elapsed := time.Since(start) //polyvet:allow simclock elapsed/ETA progress reporting only; never enters results
			var eta time.Duration
			if finished > 0 {
				eta = elapsed / time.Duration(finished) * time.Duration(len(outs)-finished)
			}
			m.Progress(Progress{
				Done: finished, Total: len(outs), Cell: cell, Seed: seed,
				Elapsed: elapsed, ETA: eta,
			})
			progressMu.Unlock()
		}
	})

	res := &Result{BaseSeed: m.BaseSeed, Seeds: m.Seeds}
	for ci, cell := range m.Cells {
		cr := CellResult{
			Scenario: cell.Scenario,
			Backend:  cell.Backend,
			Params:   cell.Params,
			Seeds:    seeds,
		}
		if cell.Replay != nil {
			cr.Replay = cell.Replay(m.BaseSeed, m.Seeds)
		}
		samples := map[string][]float64{}
		merged := map[string]*metrics.Histogram{}
		for rep := 0; rep < m.Seeds; rep++ {
			o := outs[ci*m.Seeds+rep]
			if o.err != nil {
				cr.Errors = append(cr.Errors, fmt.Sprintf("rep %d: %v", rep, o.err))
				continue
			}
			//polyvet:orderfree each name appends to its own sample slice; repetitions stay in rep order per name
			for name, v := range o.metrics {
				samples[name] = append(samples[name], v)
			}
			// Merge repetition histograms in repetition order. Merge is
			// associative and commutative, so even this fixed order is
			// belt-and-braces: any order would give identical state.
			//polyvet:orderfree each name accumulates into its own histogram; Merge is a commutative vector add (TestMergeOrderByteIdentical)
			for name, h := range o.hists {
				acc := merged[name]
				if acc == nil {
					acc = metrics.NewHistogram()
					merged[name] = acc
				}
				acc.Merge(h)
			}
		}
		for _, name := range sortedKeys(samples) {
			cr.Metrics = append(cr.Metrics, aggregate(name, samples[name]))
		}
		for _, name := range sortedKeys(merged) {
			cr.Hists = append(cr.Hists, histAggregate(name, merged[name]))
		}
		if len(samples) > 0 {
			cr.Samples = samples
		}
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}

// runOut is one repetition's output slot.
type runOut struct {
	metrics Metrics
	hists   Hists
	err     error
}

// runCell executes one repetition, converting run panics into errors
// so one malformed cell cannot abort a whole sweep.
func runCell(c Cell, seed int64) (o runOut) {
	defer func() {
		if r := recover(); r != nil {
			o = runOut{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	o.metrics, o.hists, o.err = c.Run(seed)
	return o
}

// aggregate reduces one metric's repetition samples. The sample is
// sorted once and the percentiles taken through the sorted fast path —
// cheap enough to run over thousands of cells. NaN samples (a
// repetition that could not measure the metric) are skipped rather
// than poisoning the aggregate.
func aggregate(name string, xs []float64) Aggregate {
	xs = stats.DropNaN(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := stats.SummarizeSorted(s)
	return Aggregate{
		Metric: name,
		N:      sum.N,
		Mean:   sum.Mean,
		CI95:   stats.CI95(xs),
		Min:    sum.Min,
		P50:    sum.P50,
		P95:    sum.P95,
		P99:    sum.P99,
		Max:    sum.Max,
	}
}

// histAggregate summarizes one merged histogram (quantiles within
// metrics.RelError of exact; every field 0 when it is empty).
func histAggregate(name string, h *metrics.Histogram) HistAggregate {
	return HistAggregate{
		Metric:   name,
		Count:    h.Count(),
		Mean:     h.Mean(),
		Min:      h.Min(),
		P50:      h.Quantile(50),
		P95:      h.Quantile(95),
		P99:      h.Quantile(99),
		Max:      h.Max(),
		Snapshot: h.Snapshot(),
	}
}

// Hist returns the named histogram aggregate of a cell, or false.
func (cr CellResult) Hist(name string) (HistAggregate, bool) {
	for _, a := range cr.Hists {
		if a.Metric == name {
			return a, true
		}
	}
	return HistAggregate{}, false
}

// Metric returns the named aggregate of a cell, or false.
func (cr CellResult) Metric(name string) (Aggregate, bool) {
	for _, a := range cr.Metrics {
		if a.Metric == name {
			return a, true
		}
	}
	return Aggregate{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
