// Command polybench regenerates every figure of the Polyraptor paper
// (SIGCOMM 2018) as text tables or CSV.
//
// Usage:
//
//	polybench -fig 1a                 # scaled-down default
//	polybench -fig 1b -scale medium   # larger fabric, more sessions
//	polybench -fig 1c -scale paper    # the paper's exact parameters
//	polybench -fig ablations          # A1-A4
//	polybench -fig ext                # extensions E1-E4 and Ext-S
//	polybench -fig all -csv
//
// Scaled-down runs preserve per-host delivered load, so the *shape*
// of every figure (who wins, by what factor, where crossings fall)
// matches the paper; see EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench carries one invocation through the figure printers. err is
// the first failed run; once set, printf goes quiet, so a block of
// experiments prints as it goes and checks for failure once.
type bench struct {
	out  io.Writer
	csv  bool
	seed int64
	err  error
}

// run is main with its dependencies injected, so tests can drive the
// whole CLI in-process.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polybench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		fig    = fs.String("fig", "all", "figure to regenerate: 1a, 1b, 1c, ablations, ext, all")
		scale  = fs.String("scale", "bench", "experiment scale: bench, medium, paper")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		points = fs.Int("points", 16, "max points per rank curve (1a/1b)")
		seed   = fs.Int64("seed", 1, "base seed")
		reps   = fs.Int("reps", 0, "override Figure 1c repetitions (0 = scale default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	sc, inc, ok := scales(*scale)
	if !ok {
		fmt.Fprintf(errw, "polybench: unknown scale %q (bench|medium|paper)\n", *scale)
		return 2
	}
	sc.Seed = *seed
	inc.Seed = *seed
	if *reps > 0 {
		inc.Repetitions = *reps
	}

	b := &bench{out: out, csv: *csv, seed: *seed}
	rankNote := fmt.Sprintf("k=%d hosts=%d sessions=%d bytes=%d",
		sc.FatTreeK, sc.FatTreeK*sc.FatTreeK*sc.FatTreeK/4, sc.Sessions, sc.Bytes)
	figures := []struct {
		name string
		run  func()
	}{
		{"1a", func() {
			b.figure("Figure 1a — multicast replication", rankNote, "rank", false,
				func() ([]harness.FigureSeries, error) { return harness.Figure1a(sc, *points) })
		}},
		{"1b", func() {
			b.figure("Figure 1b — multi-source fetch", rankNote, "rank", false,
				func() ([]harness.FigureSeries, error) { return harness.Figure1b(sc, *points) })
		}},
		{"1c", func() {
			b.figure("Figure 1c — incast", fmt.Sprintf("k=%d reps=%d", inc.FatTreeK, inc.Repetitions), "senders", true,
				func() ([]harness.FigureSeries, error) { return harness.Figure1c(inc) })
		}},
		{"ablations", func() { b.ablations(sc.FatTreeK) }},
		{"ext", func() { b.extensions(sc.FatTreeK) }},
	}
	ran := false
	for _, f := range figures {
		if (*fig == f.name || *fig == "all") && b.err == nil {
			f.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(errw, "polybench: unknown figure %q\n", *fig)
		fs.Usage()
		return 2
	}
	if b.err != nil {
		fmt.Fprintf(errw, "polybench: %v\n", b.err)
		return 1
	}
	return 0
}

// scales maps the -scale flag to figure and incast configurations.
func scales(name string) (harness.Scale, harness.IncastOptions, bool) {
	switch name {
	case "bench":
		return harness.BenchScale(), harness.BenchIncastOptions(), true
	case "medium":
		sc := harness.Scale{FatTreeK: 6, Sessions: 1000, Bytes: 1 << 20, LoadFactor: 0.33, Seed: 1}
		inc := harness.DefaultIncastOptions()
		inc.FatTreeK = 6
		inc.SenderCounts = []int{2, 5, 10, 15, 20, 30, 40}
		inc.Repetitions = 5
		return sc, inc, true
	case "paper":
		return harness.PaperScale(), harness.DefaultIncastOptions(), true
	}
	return harness.Scale{}, harness.IncastOptions{}, false
}

const (
	rq    = store.BackendPolyraptor
	tcp   = store.BackendTCP
	dctcp = store.BackendDCTCP
)

// result runs sc at the invocation's seed, recording the first failure.
func (b *bench) result(sc harness.Scenario, backend store.BackendKind) harness.Result {
	res, err := harness.Run(sc, backend, b.seed, harness.Observers{})
	if err != nil && b.err == nil {
		b.err = err
	}
	return res
}

// gbps runs sc and returns its goodput_gbps metric.
func (b *bench) gbps(sc harness.Scenario, backend store.BackendKind) float64 {
	return b.result(sc, backend).Metrics["goodput_gbps"]
}

// printf prints unless a run has failed (its numbers would be zeros).
func (b *bench) printf(format string, args ...any) {
	if b.err == nil {
		fmt.Fprintf(b.out, format, args...)
	}
}

func (b *bench) ablations(k int) {
	b.printf("== Ablations (DESIGN.md A1-A4) ==\n")
	trim, noTrim := harness.AblationTrim(k, 12, 70<<10)
	b.printf("A1 packet trimming (12-way incast, 70KB): with=%.3f Gbps  without=%.3f Gbps\n",
		b.gbps(trim, rq), b.gbps(noTrim, rq))
	window, pullOnly := harness.AblationInitWindow(k, 40<<10, 20)
	b.printf("A2 first-RTT window (40KB flows): with=%v  pull-only=%v (mean FCT)\n",
		b.result(window, rq).Detail, b.result(pullOnly, rq).Detail)
	partitioned, random := harness.AblationESI(k, 3, 8, 512<<10)
	b.printf("A3 multi-source ESI scheme: partitioned=%.3f Gbps  random=%.3f Gbps\n",
		b.gbps(partitioned, rq), b.gbps(random, rq))
	free, costly := harness.AblationDecode(k, 512<<10, 2000, 6)
	b.printf("A4 decode latency (2µs/symbol): none=%.3f Gbps  with=%.3f Gbps\n",
		b.gbps(free, rq), b.gbps(costly, rq))
	b.printf("\n")
}

func (b *bench) extensions(k int) {
	b.printf("== Extensions (paper's 'current work': DESIGN.md E1-E4, Ext-S) ==\n")
	hotspot := func(senders int, backend store.BackendKind) harness.Result {
		return b.result(harness.Hotspot(k, 0.3, 10, 8, 1<<20, senders), backend)
	}
	rq1, rq3 := hotspot(1, rq), hotspot(3, rq)
	b.printf("E1 hotspots (30%% core links at 1/10 rate, %.0f degraded): RQ1=%.3f  RQ3=%.3f  TCP=%.3f Gbps\n",
		rq3.Metrics["degraded_links"], rq1.Metrics["goodput_gbps"], rq3.Metrics["goodput_gbps"],
		hotspot(1, tcp).Metrics["goodput_gbps"])
	for _, dist := range []workload.SizeDist{workload.WebSearchDist(), workload.DataMiningDist()} {
		sc := harness.FlowSizes{FatTreeK: k, Dist: dist, Sessions: 60}
		rqB, _ := b.result(sc, rq).Detail.([]harness.FlowSizeBucket)
		tcpB, _ := b.result(sc, tcp).Detail.([]harness.FlowSizeBucket)
		b.printf("E2 %s workload:\n", dist.Name)
		for i := range min(len(rqB), len(tcpB)) {
			b.printf("   %-10s RQ %10v / %.3f Gbps (n=%d)   TCP %10v / %.3f Gbps\n",
				rqB[i].Label, rqB[i].MeanFCT, rqB[i].MeanGoodput, rqB[i].Count,
				tcpB[i].MeanFCT, tcpB[i].MeanGoodput)
		}
	}
	incast := harness.Incast{FatTreeK: k, Senders: 12, Bytes: 256 << 10}
	b.printf("E3 DCTCP 12-way incast (256KB): RQ=%.3f  TCP=%.3f  DCTCP=%.3f Gbps\n",
		b.gbps(incast, rq), b.gbps(incast, tcp), b.gbps(incast, dctcp))
	for _, ratio := range []int64{1, 4} {
		incast.Oversubscribe = ratio
		b.printf("E4 oversubscription %d:1 (12-way incast): RQ=%.3f  TCP=%.3f Gbps\n",
			ratio, b.gbps(incast, rq), b.gbps(incast, tcp))
	}
	on, _ := b.result(harness.Straggler{Detach: true, Bytes: 2 << 20}, rq).Detail.(harness.StragglerResult)
	off, _ := b.result(harness.Straggler{Detach: false, Bytes: 2 << 20}, rq).Detail.(harness.StragglerResult)
	b.printf("Ext-S straggler detachment: healthy %.3f Gbps (on; straggler detached=%v at %.3f) vs %.3f Gbps (off)\n",
		on.HealthyGoodput, on.Detached, on.StragglerGoodput, off.HealthyGoodput)
	b.printf("\n")
}

// figure regenerates and prints one figure: X from the first series,
// one column per series (plus its CI half-widths when withCI).
func (b *bench) figure(title, subtitle, xLabel string, withCI bool, regenerate func() ([]harness.FigureSeries, error)) {
	start := time.Now()
	series, err := regenerate()
	if err != nil {
		b.err = err
		return
	}
	var cols []stats.Series
	var xs []string
	for i, s := range series {
		if i == 0 {
			for _, x := range s.X {
				xs = append(xs, fmt.Sprintf("%.0f", x))
			}
		}
		cols = append(cols, stats.Series{Name: s.Label, Points: s.Y})
		if withCI {
			cols = append(cols, stats.Series{Name: s.Label + " ±CI", Points: s.YErr})
		}
	}
	if b.csv {
		b.printf("# %s (%s)\n%s\n", title, subtitle, stats.RenderCSV(xLabel, xs, cols))
		return
	}
	b.printf("== %s ==\n(%s, goodput in Gbps, elapsed %v)\n%s\n",
		title, subtitle, time.Since(start).Round(time.Millisecond), stats.RenderTable(xLabel, xs, cols))
}
