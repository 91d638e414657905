package main

import (
	"fmt"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/workload"
)

// bench carries one invocation through the figure printers. err is
// the first failed run; once set, printf goes quiet, so a block of
// experiments prints as it goes and checks for failure once.
type bench struct {
	c   *cli
	csv bool
	err error
}

// runBench regenerates the figures of the Polyraptor paper (SIGCOMM
// 2018), the A1-A4 ablations and the E1-E4/Ext-S extensions as text
// tables or CSV. -scale names a harness figure scale, a line of poly
// sweep flags; scaled-down runs preserve per-host delivered load, so
// the shape of every figure (who wins, by what factor, where crossings
// fall) matches the paper; see EXPERIMENTS.md.
func runBench(c *cli, args []string) int {
	var (
		fig    = c.fs.String("fig", "all", "figure to regenerate: 1a, 1b, 1c, ablations, ext, all")
		scale  = c.fs.String("scale", "bench", "experiment scale: bench, paper")
		points = c.fs.Int("points", 16, "max points per rank curve (1a/1b; 0 = every session)")
		reps   = c.fs.Int("reps", 0, "override Figure 1c repetitions (0 = scale default)")
	)
	c.flags(formatFlag)
	if code := c.parse(args); code != proceed {
		return code
	}
	sc, p, err := harness.LookupFigureScale(*scale)
	switch {
	case c.format == "json":
		return c.fail(2, "bench prints -format table or csv")
	case err != nil:
		return c.fail(2, "%v", err)
	case *points < 0:
		return c.fail(2, "-points must be >= 0, got %d", *points)
	case *reps < 0:
		return c.fail(2, "-reps must be >= 0, got %d", *reps)
	}
	if *reps > 0 {
		sc.Reps = *reps
	}

	b := &bench{c: c, csv: c.format == "csv"}
	f1 := p.Fig1.Scale
	rankNote := fmt.Sprintf("k=%d hosts=%d sessions=%d bytes=%d",
		f1.FatTreeK, f1.FatTreeK*f1.FatTreeK*f1.FatTreeK/4, f1.Sessions, f1.Bytes)
	figures := []struct {
		name string
		run  func()
	}{
		{"1a", func() {
			b.figure("Figure 1a — multicast replication", rankNote, "rank", false,
				func() ([]harness.FigureSeries, error) { return harness.Figure1a(f1, c.seed, *points) })
		}},
		{"1b", func() {
			b.figure("Figure 1b — multi-source fetch", rankNote, "rank", false,
				func() ([]harness.FigureSeries, error) { return harness.Figure1b(f1, c.seed, *points) })
		}},
		{"1c", func() {
			b.figure("Figure 1c — incast", fmt.Sprintf("k=%d reps=%d", p.Incast.FatTreeK, sc.Reps), "senders", true,
				func() ([]harness.FigureSeries, error) { return harness.Figure1c(p.Incast, sc.Senders, sc.Reps, c.seed) })
		}},
		{"ablations", func() { b.ablations(f1.FatTreeK) }},
		{"ext", func() { b.extensions(f1.FatTreeK) }},
	}
	ran := false
	for _, f := range figures {
		if (*fig == f.name || *fig == "all") && b.err == nil {
			f.run()
			ran = true
		}
	}
	if !ran {
		c.logf("unknown figure %q", *fig)
		c.fs.Usage()
		return 2
	}
	if b.err != nil {
		return c.fail(1, "%v", b.err)
	}
	return 0
}

const (
	rq    = store.BackendPolyraptor
	tcp   = store.BackendTCP
	dctcp = store.BackendDCTCP
)

// result runs sc at the invocation's seed, recording the first failure.
func (b *bench) result(sc harness.Scenario, backend store.BackendKind) harness.Result {
	res, err := harness.Run(sc, backend, b.c.seed, harness.Observers{})
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
		fmt.Fprintf(b.c.out, format, args...)
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
	// Wall clock goes to stderr: stdout is the figure alone.
	b.c.logf("%s: %v", title, time.Since(start).Round(time.Millisecond))
	if b.csv {
		b.printf("# %s (%s)\n%s\n", title, subtitle, stats.RenderCSV(xLabel, xs, cols))
		return
	}
	b.printf("== %s ==\n(%s, goodput in Gbps)\n%s\n", title, subtitle, stats.RenderTable(xLabel, xs, cols))
}
