// Package perfbench runs Polyraptor's fixed performance suite — the
// gf256 row-operation kernels, RaptorQ codec encode/decode, the
// discrete-event engine, and end-to-end figure cells — and serialises
// the results as a BENCH_<n>.json report so every PR carries a
// comparable perf baseline. cmd/polyperf is the CLI front end; the
// checked-in BENCH_*.json files form the repo's perf trajectory.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"polyraptor/internal/gf256"
)

// Schema identifies the report format.
const Schema = "polyperf/v1"

// Result is one benchmark measurement.
type Result struct {
	// Name is the suite-stable benchmark identifier, e.g.
	// "gf256/MulAddRow/1436".
	Name string `json:"name"`
	// N is the number of iterations measured.
	N int `json:"n"`
	// NsPerOp is wall time per iteration in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation counts/bytes per
	// iteration (from runtime.MemStats deltas).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// MBPerSec is throughput for benchmarks with a natural byte volume.
	MBPerSec float64 `json:"mb_per_s,omitempty"`
	// Metrics carries derived rates (events_per_sec, symbols_per_sec)
	// and benchmark-specific outputs (goodput_gbps).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full suite output.
type Report struct {
	Schema    string `json:"schema"`
	Index     int    `json:"index"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler width the suite ran under; the
	// benchmarks are single-goroutine but background GC work scales
	// with it.
	GOMAXPROCS int `json:"gomaxprocs"`
	// CPUFeatures lists the accelerated kernel paths the gf256 package
	// selected on this machine (empty = portable word-wise code), so
	// reports from different hardware are never compared blind.
	CPUFeatures []string `json:"cpu_features,omitempty"`
	// WallSeconds is the wall-clock duration of the whole suite run.
	WallSeconds float64  `json:"wall_seconds"`
	Quick       bool     `json:"quick"`
	Results     []Result `json:"results"`
}

// Case is one suite entry.
type Case struct {
	// Name is the stable identifier.
	Name string
	// Fn runs n iterations of the operation.
	Fn func(n int)
	// BytesPerOp, when non-zero, yields an MB/s figure.
	BytesPerOp int64
	// RateName/UnitsPerOp, when set, yield a derived rate metric:
	// Metrics[RateName] = UnitsPerOp / seconds-per-op.
	RateName   string
	UnitsPerOp float64
	// OneShot runs Fn exactly once with no warmup — for end-to-end
	// cells whose single run is already seconds long.
	OneShot bool
	// Metrics, when set, is called after the run to attach
	// benchmark-specific outputs.
	Metrics func() map[string]float64
	// Close, when set, releases what Fn opened (sockets, goroutines)
	// once the case has been measured.
	Close func()
}

// Options configures a suite run.
type Options struct {
	// Quick shrinks workloads and budgets for CI smoke runs.
	Quick bool
	// Progress, when non-nil, receives one line per completed case.
	Progress io.Writer
}

// budget returns the per-case measurement budget.
func (o Options) budget() time.Duration {
	if o.Quick {
		return 50 * time.Millisecond
	}
	return time.Second
}

// Run executes the fixed suite and returns the report (Index is left
// for the caller to assign).
func Run(opts Options) Report {
	rep := Report{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: gf256.Features(),
		Quick:       opts.Quick,
	}
	start := time.Now()
	for _, c := range Suite(opts.Quick) {
		res := runCase(c, opts.budget())
		if c.Close != nil {
			c.Close()
		}
		rep.Results = append(rep.Results, res)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-34s %12.1f ns/op %10.0f allocs/op%s\n",
				res.Name, res.NsPerOp, res.AllocsPerOp, rateSuffix(res))
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep
}

func rateSuffix(r Result) string {
	if len(r.Metrics) == 0 {
		return ""
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("  %s=%.4g", k, r.Metrics[k])
	}
	return s
}

// runCase measures one case: iterations grow geometrically until the
// run fills the budget, then per-op figures are derived from the final
// (largest) run.
func runCase(c Case, budget time.Duration) Result {
	if !c.OneShot {
		c.Fn(1) // warmup: table init, cache fill, JIT-ish first-run costs
	}
	runtime.GC()
	var before, after runtime.MemStats
	n := 1
	var elapsed time.Duration
	for {
		runtime.ReadMemStats(&before)
		start := time.Now()
		c.Fn(n)
		elapsed = time.Since(start)
		runtime.ReadMemStats(&after)
		if c.OneShot || elapsed >= budget || n >= 1<<29 {
			break
		}
		// Aim past the budget so the final run dominates noise.
		next := int64(float64(n) * 1.25 * float64(budget) / float64(elapsed+1))
		if next <= int64(n) {
			next = int64(n) * 2
		}
		if next > int64(n)*100 {
			next = int64(n) * 100
		}
		n = int(next)
	}
	res := Result{
		Name:        c.Name,
		N:           n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
	secPerOp := res.NsPerOp / 1e9
	if c.BytesPerOp > 0 && secPerOp > 0 {
		res.MBPerSec = float64(c.BytesPerOp) / 1e6 / secPerOp
	}
	if c.RateName != "" && secPerOp > 0 {
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[c.RateName] = c.UnitsPerOp / secPerOp
	}
	if c.Metrics != nil {
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		for k, v := range c.Metrics() {
			res.Metrics[k] = v
		}
	}
	return res
}

// WriteJSON serialises the report with stable formatting.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
