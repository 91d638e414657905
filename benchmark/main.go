// Command benchmark is PolyBench, the system benchmark of this
// repository: four closed-loop workloads (sim_rq, sim_tcp, codec_object,
// udp_fetch), the end-to-end metrics a user of the repository sees, and a
// per-layer ledger measured from outside each module. README.md in this
// directory explains the choices; BENCHMARK.json at the repository root
// declares the contract.
//
//	go run ./benchmark --workload sim_rq --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                       # all four, untraced and traced
//	go run ./benchmark -runs 10 -out a.json  # a full result set
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// variants is the number of input variants a run cycles through: timed
// iteration i runs on the inputs drawn from sub-seed (seed, i mod variants).
// Simulated results depend on the draw, so a run reports them over several
// draws; each draw's results still repeat bit for bit.
const variants = 5

// minTimed is the least number of timed iterations a run reports medians
// over, whatever --seconds says: one per variant.
const minTimed = variants

// setUpSamples is the least number of set-ups whose median a run reports as
// setup_s.
const setUpSamples = 25

// subSeed derives the seed of one input variant; no two (seed, variant)
// pairs share one.
func subSeed(seed int64, variant int) int64 { return seed*variants + int64(variant) }

// scale sizes every workload. full is what BENCHMARK.json measures; quick
// is the smoke size the tests use.
type scale struct {
	sim         simScale
	objects     int // codec_object: objects per iteration, a multiple of 3
	objectBytes int
	fetches     int // udp_fetch: sequential fetches per iteration
	fetchBytes  int
}

var (
	full = scale{
		sim:     simScale{k: 8, sessions: 400, bytes: 512 << 10, load: 0.33, replicas: 3},
		objects: 12, objectBytes: 16 << 20,
		fetches: 300, fetchBytes: 1 << 20,
	}
	quick = scale{
		sim:     simScale{k: 4, sessions: 60, bytes: 512 << 10, load: 0.33, replicas: 3},
		objects: 3, objectBytes: 1 << 20,
		fetches: 20, fetchBytes: 1 << 20,
	}
)

// iteration is what one closed-loop pass over a workload's inputs measured.
type iteration struct {
	variant      int     // which input variant it ran
	setupS, runS float64 // host seconds
	allocs       float64 // runtime.MemStats.Mallocs over the iteration
	attempted    int     // sessions, objects or fetches
	failed       int
	xferMs       []float64 // per-transfer completion time, workload's own clock
	goodputMbps  float64   // mean per-transfer goodput, workload's own clock
	// fingerprint, when set, must repeat exactly on every iteration of a
	// run: simulated results are a pure function of the seed.
	fingerprint string
	layer       map[string]float64 // per-layer ledger; traced iterations add to it
}

// bench is one workload bound to a scale and a seed.
type bench interface {
	// setUp does the set-up of one iteration alone, tears it down again and
	// returns the host seconds the set-up took.
	setUp(variant int) (float64, error)
	// iterate sets up, runs and checks one iteration on the inputs of the
	// given variant; tr is nil on untraced iterations.
	iterate(variant int, tr *tracer) (iteration, error)
	// probes runs the layer's isolation probes and adds the metrics
	// derived from them; runS is the untraced median run_s, and notes for
	// the reader go to log.
	probes(layer map[string]float64, runS float64, log io.Writer) (*estimate, error)
}

func newBench(name string, sc scale, seed int64) (bench, error) {
	switch name {
	case wlSimRQ:
		return &simWorkload{sc: sc.sim, seed: seed}, nil
	case wlSimTCP:
		return &simWorkload{sc: sc.sim, seed: seed, tcp: true}, nil
	case wlCodec:
		return &codecWorkload{sc: sc, seed: seed}, nil
	case wlUDP:
		return &udpWorkload{sc: sc, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as the last line of its output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs one iteration with the collector quiesced before it and the
// allocation count taken around it.
func measure(b bench, variant int, tr *tracer) (iteration, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it, err := b.iterate(variant, tr)
	runtime.ReadMemStats(&after)
	it.variant = variant
	it.allocs = float64(after.Mallocs - before.Mallocs)
	return it, err
}

// runOpts are the settings of one run.
type runOpts struct {
	seconds  float64 // timed seconds
	minTimed int     // timed iterations at least, whatever seconds says
	traced   bool
	traceDir string    // where a traced run writes trace_<workload>.json
	log      io.Writer // tables; the caller prints the JSON line
}

// runBench is one run of the benchmark: an untimed warm-up iteration, then
// timed iterations for the given time. An untraced run cycles through the
// input variants and reports the end-to-end metrics. A traced run stays on
// variant 0, so that its counts are a function of the seed alone; it spends
// half its time untraced and half traced, writes the last traced
// iteration's spans and reports the per-layer ledger; the gap between the
// two halves is the tracing overhead.
func runBench(name string, b bench, seed int64, o runOpts) (result, error) {
	res := result{Correct: true, Metrics: map[string]value{}}
	warm, err := measure(b, 0, nil)
	if err != nil {
		return res, fmt.Errorf("%s warm-up: %w", name, err)
	}
	fingerprints := map[int]string{0: warm.fingerprint}
	collect := func(budget float64, atLeast int, tr func() *tracer) ([]iteration, error) {
		var its []iteration
		start := time.Now()
		for len(its) < atLeast || time.Since(start).Seconds() < budget {
			variant := 0
			if !o.traced {
				variant = len(its) % variants
			}
			it, err := measure(b, variant, tr())
			if err != nil {
				return nil, fmt.Errorf("%s iteration %d: %w", name, len(its)+1, err)
			}
			if first, seen := fingerprints[variant]; !seen {
				fingerprints[variant] = it.fingerprint
			} else if it.fingerprint != first {
				fmt.Fprintf(o.log, "%s: seed %d variant %d did not repeat: %q then %q\n", name, seed, variant, first, it.fingerprint)
				res.Correct = false
			}
			res.Attempted += it.attempted
			res.Failed += it.failed
			its = append(its, it)
		}
		return its, nil
	}

	if !o.traced {
		its, err := collect(o.seconds, o.minTimed, func() *tracer { return nil })
		if err != nil {
			return res, err
		}
		e := reduceEndToEnd(its)
		// Set-up takes milliseconds, so the iterations alone give a median
		// of few, noisy samples: set up again, on its own, until there are
		// setUpSamples of them.
		setups := make([]float64, 0, setUpSamples)
		for _, it := range its {
			setups = append(setups, it.setupS)
		}
		for i := 0; len(setups) < setUpSamples; i++ {
			s, err := b.setUp(i % variants)
			if err != nil {
				return res, fmt.Errorf("%s set-up: %w", name, err)
			}
			setups = append(setups, s)
		}
		e["setup_s"] = median(setups)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{e[m.Name], m.Unit}
		}
		printMetrics(o.log, fmt.Sprintf("%s seed %d: end-to-end, %d timed iterations, untraced", name, seed, len(its)), endToEnd, res.Metrics)
		return res, nil
	}

	half := max(1, o.minTimed/2)
	plain, err := collect(o.seconds/2, half, func() *tracer { return nil })
	if err != nil {
		return res, err
	}
	var tr *tracer
	tracedIts, err := collect(o.seconds/2, half, func() *tracer { tr = newTracer(); return tr })
	if err != nil {
		return res, err
	}
	runS := reduceEndToEnd(plain)["run_s"]
	layer := reduceLayer(tracedIts)
	for k, v := range reduceLayer(plain) { // rates come from untraced time
		layer[k] = v
	}
	layer["trace.overhead_frac"] = reduceEndToEnd(tracedIts)["run_s"]/runS - 1
	est, err := b.probes(layer, runS, o.log)
	if err != nil {
		return res, fmt.Errorf("%s probes: %w", name, err)
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{layer[m.Name], m.Unit}
	}
	printMetrics(o.log, fmt.Sprintf("%s seed %d: per-layer, %d untraced + %d traced iterations", name, seed, len(plain), len(tracedIts)), perLayer, res.Metrics)

	// The table describes the last traced iteration, whose spans are kept.
	last := tracedIts[len(tracedIts)-1]
	for _, s := range tr.spans {
		if s.Name == "run" && s.Parent == 0 {
			printTimeTable(o.log, name, selfTimes(tr.spans, s.ID, est), last.runS)
		}
	}
	if rows := serverRows(tr.spans); len(rows) > 0 {
		fmt.Fprintln(o.log, "  parallel track (server goroutines, not part of the sum):")
		for _, r := range rows {
			fmt.Fprintf(o.log, "  %-44s %10.4f %18d\n", r.Name, r.SelfS, r.Count)
		}
	}
	path, err := tr.write(o.traceDir, name)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(o.log, "  %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// finish prints a run's JSON line and returns the exit code: non-zero when
// an output was wrong or an operation failed.
func finish(name string, res result, stdout, stderr io.Writer) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: correct=%v, %d of %d failed\n", name, res.Correct, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// reduceEndToEnd turns timed iterations into the end-to-end metrics. Host
// costs are medians over iterations. The transfer metrics depend on the
// input draw, so they are taken per variant — the median over that
// variant's repeats, percentiles within each iteration first — and then
// averaged over the variants: on the simulations, where a variant's values
// repeat exactly, the result is a function of the seed alone.
func reduceEndToEnd(its []iteration) map[string]float64 {
	col := func(f func(iteration) float64) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return xs
	}
	overVariants := func(f func(iteration) float64) float64 {
		var perVariant []float64
		for v := 0; v < variants; v++ {
			var repeats []float64
			for _, it := range its {
				if it.variant == v {
					repeats = append(repeats, f(it))
				}
			}
			if len(repeats) > 0 {
				perVariant = append(perVariant, median(repeats))
			}
		}
		return mean(perVariant)
	}
	return map[string]float64{
		"setup_s":        median(col(func(it iteration) float64 { return it.setupS })),
		"run_s":          median(col(func(it iteration) float64 { return it.runS })),
		"allocs_per_run": median(col(func(it iteration) float64 { return it.allocs })),
		"peak_rss_mb":    peakRSSMB(),
		"goodput_mbps":   overVariants(func(it iteration) float64 { return it.goodputMbps }),
		"xfer_p50_ms":    overVariants(func(it iteration) float64 { return quantile(it.xferMs, 0.50) }),
		"xfer_p95_ms":    overVariants(func(it iteration) float64 { return quantile(it.xferMs, 0.95) }),
	}
}

// reduceLayer takes the median of every per-layer value over iterations.
func reduceLayer(its []iteration) map[string]float64 {
	cols := map[string][]float64{}
	for _, it := range its {
		for k, v := range it.layer {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]float64, len(cols))
	for k, xs := range cols {
		out[k] = median(xs)
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printMetrics(w io.Writer, title string, specs []metricSpec, vals map[string]value) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, m := range specs {
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %.2f", m.Bound)
		} else if m.Moves != "" {
			bound = "moves " + m.Moves
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-7s %-6s %s\n", m.Name, vals[m.Name].Value, m.Unit, m.Better, bound)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all, one process each)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "timed seconds per run (at least 5 iterations are timed)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer ledger; 0: end-to-end metrics")
	quickMode := fs.Bool("quick", false, "smoke sizes: k=4, 60 sessions, 3 x 1 MiB objects, 20 fetches")
	runs := fs.Int("runs", 1, "all-workload mode: untraced runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", "", "all-workload mode: write the result set to this file")
	outDir := fs.String("trace-dir", "benchmark/out", "directory for trace_<workload>.json")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *quickMode {
		// Smoke sizes get the floor of five timed iterations unless the
		// caller asked for a time.
		asked := false
		fs.Visit(func(f *flag.Flag) { asked = asked || f.Name == "seconds" })
		if !asked {
			*seconds = 0
		}
	}
	if *workload == "" {
		return runSuite(*seed, *seconds, *runs, *quickMode, *out, *outDir, stdout, stderr)
	}
	sc := full
	if *quickMode {
		sc = quick
	}
	b, err := newBench(*workload, sc, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res, err := runBench(*workload, b, *seed, runOpts{
		seconds: *seconds, minTimed: minTimed, traced: *trace != 0, traceDir: *outDir, log: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return finish(*workload, res, stdout, stderr)
}
