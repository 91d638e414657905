package main

import (
	"fmt"
	"io"

	"polyraptor/internal/harness"
)

// runShuffle runs the many-to-many shuffle: every mapper sends one
// distinct partition to every reducer (the full M×R matrix at once).
// The job-level metric is shuffle completion time (the slowest pair
// gates the job), beside per-pair FCT percentiles and aggregate
// goodput. Partition sizes can be Zipf-skewed across reducers and one
// mapper made a straggler.
func runShuffle(c *cli, args []string) int {
	p := harness.DefaultSweepParams()
	opt := &p.Shuffle
	opt.Flags(c.fs)
	c.flags(runFlags | formatFlag | traceFlags)
	if code := c.parse(args); code != proceed {
		return code
	}
	table := func(w io.Writer, runs []harness.ShuffleRun) { shuffleTable(w, *opt, runs) }
	return drive(c, *opt, p, table, shuffleCSV, false)
}

func shuffleTable(w io.Writer, opt harness.ShuffleOptions, runs []harness.ShuffleRun) {
	fmt.Fprintf(w, "== Polyraptor shuffle (many-to-many) ==\n")
	straggler := "off"
	if opt.StragglerFactor > 1 {
		straggler = fmt.Sprintf("%gx", opt.StragglerFactor)
	}
	fmt.Fprintf(w, "k=%d, %d mappers x %d reducers (%d pairs), %d KB mean partition, skew=%.2f, straggler=%s\n\n",
		opt.FatTreeK, opt.Mappers, opt.Reducers, opt.Mappers*opt.Reducers,
		opt.BytesPerPair>>10, opt.Skew, straggler)
	fmt.Fprintf(w, "%-11s %10s %10s %10s %10s %9s\n",
		"backend", "shuffle", "FCTp50ms", "FCTp99ms", "agg Gbps", "vs rq")
	var rqTime float64
	for _, r := range runs {
		if r.Backend == "polyraptor" {
			rqTime = r.CompletionTime
		}
	}
	for _, r := range runs {
		slowdown := "-"
		if rqTime > 0 {
			slowdown = fmt.Sprintf("%.2fx", r.CompletionTime/rqTime)
		}
		fmt.Fprintf(w, "%-11s %8.2fms %10.2f %10.2f %10.3f %9s\n",
			r.Backend, r.CompletionTime*1e3,
			r.PairFCT.P50*1e3, r.PairFCT.P99*1e3, r.GoodputGbps, slowdown)
	}
}

func shuffleCSV(w io.Writer, runs []harness.ShuffleRun) {
	fmt.Fprintln(w, "backend,shuffle_s,pair_fct_p50_s,pair_fct_p95_s,pair_fct_p99_s,goodput_gbps,total_bytes")
	for _, r := range runs {
		fmt.Fprintf(w, "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n",
			r.Backend, r.CompletionTime,
			r.PairFCT.P50, r.PairFCT.P95, r.PairFCT.P99,
			r.GoodputGbps, r.TotalBytes)
	}
}
