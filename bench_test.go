package polyraptor_test

// One benchmark per table/figure of the paper (plus the A1-A4
// ablations and E1-E3 extensions of EXPERIMENTS.md). Each bench regenerates its figure at a load-preserving
// scaled-down configuration (see EXPERIMENTS.md for the scaling
// argument and paper-scale results from cmd/polybench) and prints the
// series the paper plots — who wins, by what factor, where crossings
// fall — exactly once, regardless of b.N.
//
// Benchmarked time is the full experiment (workload generation,
// simulation, reduction), so these double as end-to-end performance
// regressions for the simulator.

import (
	"fmt"
	"sync"
	"testing"

	"polyraptor"
	"polyraptor/internal/harness"
	"polyraptor/internal/stats"
	"polyraptor/internal/store"
	"polyraptor/internal/workload"
)

const (
	rq    = store.BackendPolyraptor
	tcp   = store.BackendTCP
	dctcp = store.BackendDCTCP
)

// run is harness.Run at seed 1 with no observers; a failed run fails
// the benchmark.
func run(b *testing.B, sc harness.Scenario, backend store.BackendKind) harness.Result {
	b.Helper()
	res, err := harness.Run(sc, backend, 1, harness.Observers{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// figure unwraps a Figure1x result.
func figure(b *testing.B, series []polyraptor.FigureSeries, err error) []polyraptor.FigureSeries {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	return series
}

var printOnce sync.Map

// printSeries prints a figure table once per benchmark name.
func printSeries(name, xLabel string, series []polyraptor.FigureSeries) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
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
		if s.YErr != nil {
			cols = append(cols, stats.Series{Name: s.Label + " ±CI", Points: s.YErr})
		}
	}
	fmt.Printf("\n== %s (goodput, Gbps) ==\n%s\n", name, stats.RenderTable(xLabel, xs, cols))
}

// BenchmarkFigure1aMulticast regenerates Figure 1a: distributed
// storage replication, rank-ordered per-session goodput for 1 and 3
// replicas, Polyraptor (RQ multicast) versus TCP (multi-unicast).
func BenchmarkFigure1aMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := polyraptor.Figure1a(polyraptor.BenchScale(), 12)
		printSeries("Figure 1a — multicast replication", "rank", figure(b, series, err))
	}
}

// BenchmarkFigure1bMultiSource regenerates Figure 1b: multi-source
// fetch from 1 and 3 replica servers, RQ versus uncoordinated TCP
// partial fetches.
func BenchmarkFigure1bMultiSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := polyraptor.Figure1b(polyraptor.BenchScale(), 12)
		printSeries("Figure 1b — multi-source fetch", "rank", figure(b, series, err))
	}
}

// BenchmarkFigure1cIncast regenerates Figure 1c: synchronized short
// flows, aggregate goodput versus sender count with 95% CIs, for
// 256 KB and 70 KB blocks.
func BenchmarkFigure1cIncast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := polyraptor.Figure1c(polyraptor.BenchIncastOptions())
		printSeries("Figure 1c — incast", "senders", figure(b, series, err))
	}
}

// BenchmarkDecodeOverheadCurve regenerates the paper's footnote-2
// table (decode failure probability vs received overhead) using the
// real codec, and reports failure rates as bench metrics.
func BenchmarkDecodeOverheadCurve(b *testing.B) {
	rates := make([]float64, 3)
	for i := 0; i < b.N; i++ {
		for o := 0; o <= 2; o++ {
			var err error
			if rates[o], err = harness.MeasureDecodeFailure(64, o, 200, int64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, loaded := printOnce.LoadOrStore("overhead", true); !loaded {
		fmt.Printf("\n== Decode failure vs overhead (K=64, real codec) ==\n")
		for o, r := range rates {
			fmt.Printf("K+%d: measured %.4f   model %.1e\n", o, r, polyraptor.DecodeFailureProb(o))
		}
		fmt.Println()
	}
	b.ReportMetric(rates[0], "fail@+0")
	b.ReportMetric(rates[2], "fail@+2")
}

// ablation benchmarks both arms of one ablation on Polyraptor, prints
// the contrast once and reports the named metric of each arm.
func ablation(b *testing.B, key, title, metric, unit string, armA, armB harness.Scenario, labels, reports [2]string) {
	var res [2]harness.Result
	for i := 0; i < b.N; i++ {
		res = [2]harness.Result{run(b, armA, rq), run(b, armB, rq)}
	}
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n== %s: %s ==\n", key, title)
		for i, r := range res {
			fmt.Printf("%s %.3f %s\n", labels[i], r.Metrics[metric], unit)
		}
		fmt.Println()
	}
	b.ReportMetric(res[0].Metrics[metric], reports[0])
	b.ReportMetric(res[1].Metrics[metric], reports[1])
}

// BenchmarkAblationNoTrim (A1): Polyraptor incast with and without
// NDP packet trimming.
func BenchmarkAblationNoTrim(b *testing.B) {
	with, without := harness.AblationTrim(4, 12, 70<<10)
	ablation(b, "A1", "packet trimming (12-way incast, 70KB)", "goodput_gbps", "Gbps", with, without,
		[2]string{"with trimming:   ", "without trimming:"}, [2]string{"trim-Gbps", "notrim-Gbps"})
}

// BenchmarkAblationInitialWindow (A2): short-flow completion time
// with and without the first-RTT window blast.
func BenchmarkAblationInitialWindow(b *testing.B) {
	window, pullOnly := harness.AblationInitWindow(4, 40<<10, 20)
	ablation(b, "A2", "first-RTT window (40KB flows)", "fct_us", "µs mean FCT", window, pullOnly,
		[2]string{"with window:", "pull-only:  "}, [2]string{"iw-fct-µs", "noiw-fct-µs"})
}

// BenchmarkAblationPartitioning (A3): multi-source goodput with ESI
// partitioning versus independent random seeding.
func BenchmarkAblationPartitioning(b *testing.B) {
	partitioned, random := harness.AblationESI(4, 3, 8, 512<<10)
	ablation(b, "A3", "multi-source ESI scheme (3 senders, 512KB)", "goodput_gbps", "Gbps", partitioned, random,
		[2]string{"partitioned:", "random ESI: "}, [2]string{"part-Gbps", "rand-Gbps"})
}

// BenchmarkAblationDecodeLatency (A4): sensitivity of session goodput
// to a per-symbol decode cost (the paper's stated future-work question).
func BenchmarkAblationDecodeLatency(b *testing.B) {
	free, costly := harness.AblationDecode(4, 512<<10, 2000, 6)
	ablation(b, "A4", "decode latency sensitivity (2µs/symbol)", "goodput_gbps", "Gbps", free, costly,
		[2]string{"no decode cost:  ", "with decode cost:"}, [2]string{"nolat-Gbps", "lat-Gbps"})
}

// BenchmarkExtensionHotspots (E1): goodput with 30% of agg<->core
// links degraded 10x — the paper's "existence of network hotspots"
// scenario. Spraying + multi-source routing around hotspots versus a
// hash-pinned TCP flow.
func BenchmarkExtensionHotspots(b *testing.B) {
	hotspot := func(senders int, be store.BackendKind) harness.Result {
		return run(b, harness.Hotspot(4, 0.3, 10, 8, 1<<20, senders), be)
	}
	var rq1, rq3, tcp1 harness.Result
	for i := 0; i < b.N; i++ {
		rq1, rq3, tcp1 = hotspot(1, rq), hotspot(3, rq), hotspot(1, tcp)
	}
	if _, loaded := printOnce.LoadOrStore("E1", true); !loaded {
		fmt.Printf("\n== E1: network hotspots (30%% of core links at 1/10 rate; %.0f degraded) ==\nRQ 1 source:  %.3f Gbps\nRQ 3 sources: %.3f Gbps\nTCP pinned:   %.3f Gbps\n\n",
			rq3.Metrics["degraded_links"], rq1.Metrics["goodput_gbps"], rq3.Metrics["goodput_gbps"], tcp1.Metrics["goodput_gbps"])
	}
	b.ReportMetric(rq3.Metrics["goodput_gbps"], "rq3-Gbps")
	b.ReportMetric(tcp1.Metrics["goodput_gbps"], "tcp-Gbps")
}

// BenchmarkExtensionDCTCPIncast (E3): the incast sweep with a DCTCP
// baseline added — a modern ECN-driven DC transport still collapses
// under synchronized bursts that overflow the buffer before feedback
// exists, while Polyraptor's trimming absorbs them.
func BenchmarkExtensionDCTCPIncast(b *testing.B) {
	opt := harness.BenchIncastOptions()
	var rows [][3]float64
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range opt.SenderCounts {
			sc := harness.Incast{FatTreeK: opt.FatTreeK, Senders: n, Bytes: 256 << 10}
			var row [3]float64
			for j, be := range []store.BackendKind{rq, tcp, dctcp} {
				row[j] = run(b, sc, be).Metrics["goodput_gbps"]
			}
			rows = append(rows, row)
		}
	}
	if _, loaded := printOnce.LoadOrStore("E3", true); !loaded {
		fmt.Printf("\n== E3: incast with DCTCP baseline (256KB, goodput Gbps) ==\n%8s %8s %8s %8s\n", "senders", "RQ", "TCP", "DCTCP")
		for i, n := range opt.SenderCounts {
			fmt.Printf("%8d %8.3f %8.3f %8.3f\n", n, rows[i][0], rows[i][1], rows[i][2])
		}
		fmt.Println()
	}
}

// BenchmarkExtensionFlowSizes (E2): web-search and data-mining flow
// size distributions — the paper's "different workloads" question.
func BenchmarkExtensionFlowSizes(b *testing.B) {
	dists := []workload.SizeDist{workload.WebSearchDist(), workload.DataMiningDist()}
	buckets := make([][2][]harness.FlowSizeBucket, len(dists))
	for i := 0; i < b.N; i++ {
		for d, dist := range dists {
			sc := harness.FlowSizes{FatTreeK: 4, Dist: dist, Sessions: 60}
			buckets[d][0] = run(b, sc, rq).Detail.([]harness.FlowSizeBucket)
			buckets[d][1] = run(b, sc, tcp).Detail.([]harness.FlowSizeBucket)
		}
	}
	if _, loaded := printOnce.LoadOrStore("E2", true); !loaded {
		for d, dist := range dists {
			fmt.Printf("\n== E2: %s workload (mean FCT / goodput by flow size) ==\n", dist.Name)
			rqB, tcpB := buckets[d][0], buckets[d][1]
			for i := range rqB {
				fmt.Printf("%-10s  RQ: %10v %.3f Gbps (%d)   TCP: %10v %.3f Gbps (%d)\n",
					rqB[i].Label,
					rqB[i].MeanFCT, rqB[i].MeanGoodput, rqB[i].Count,
					tcpB[i].MeanFCT, tcpB[i].MeanGoodput, tcpB[i].Count)
			}
		}
		fmt.Println()
	}
}
