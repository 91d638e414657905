// Package stats provides the summary statistics the evaluation
// figures need: means, Student-t 95% confidence intervals (the error
// bars of Figure 1c), percentiles and rank-ordered goodput series
// (the x-axis of Figures 1a/1b).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DropNaN returns xs without its NaN elements. When xs has none it is
// returned as-is (no copy); otherwise a filtered copy is returned, so
// the input is never modified.
func DropNaN(xs []float64) []float64 {
	clean := true
	for _, x := range xs {
		if math.IsNaN(x) {
			clean = false
			break
		}
	}
	if clean {
		return xs
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// tCrit95 holds two-sided 95% Student-t critical values by degrees of
// freedom (1-based); beyond 30 the normal approximation is used.
var tCrit95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
	2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
	2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// of the mean (Student t), e.g. the error bars of Figure 1c: the paper
// uses 5 repetitions with different seeds, i.e. 4 degrees of freedom.
// NaN samples (a stalled flow that never completed) are skipped, like
// Percentile and Summarize.
func CI95(xs []float64) float64 {
	xs = DropNaN(xs)
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	var t float64
	if df < len(tCrit95) {
		t = tCrit95[df]
	} else {
		t = 1.960
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between order statistics. NaN samples are skipped: a
// single stalled-flow NaN must not poison the whole distribution
// (sort.Float64s would otherwise scatter NaNs through the order
// statistics).
func Percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), DropNaN(xs)...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile for a sample already sorted
// ascending: no copy, no re-sort. Callers that take many percentiles
// of one sample (sweep aggregation over thousands of cells) sort once
// and use this.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return percentileSorted(s, p)
}

// Summary condenses a sample into the headline numbers storage
// evaluations report: mean and tail percentiles. The zero value is the
// summary of an empty sample.
type Summary struct {
	N                  int
	Mean               float64
	Min, P50, P95, P99 float64
	Max                float64
}

// Summarize computes a Summary over a sorted copy of xs. NaN samples
// are skipped (see Percentile); N counts only the finite-ordered
// samples that remain.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), DropNaN(xs)...)
	sort.Float64s(s)
	return SummarizeSorted(s)
}

// SummarizeSorted is Summarize for a sample already sorted ascending:
// the fast path for callers that have sorted (or can keep) the sample
// themselves.
func SummarizeSorted(s []float64) Summary {
	if len(s) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		Min:  s[0],
		P50:  percentileSorted(s, 50),
		P95:  percentileSorted(s, 95),
		P99:  percentileSorted(s, 99),
		Max:  s[len(s)-1],
	}
}

// percentileSorted is Percentile for an already-sorted sample.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// RankSeries sorts values in descending order — the "rank of transport
// session" presentation of Figures 1a and 1b (rank 0 is the fastest
// session).
func RankSeries(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s
}

// Downsample returns at most n points evenly spaced over the series
// (first and last always included, except that n == 1 keeps only the
// first), for readable plot output.
func Downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return append([]float64(nil), xs...)
	}
	if n == 1 {
		return []float64{xs[0]}
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(xs) - 1) / (n - 1)
		out = append(out, xs[idx])
	}
	return out
}

// Series is a named data series for table rendering.
type Series struct {
	Name   string
	Points []float64
}

// RenderTable renders aligned columns: one row per index, one column
// per series, with the given x-axis labels. Missing or NaN points
// render as "-". The output is the textual equivalent of the paper's
// figures.
func RenderTable(xLabel string, xs []string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range xs {
		fmt.Fprintf(&b, "%-16s", x)
		for _, s := range series {
			if i < len(s.Points) && !math.IsNaN(s.Points[i]) {
				fmt.Fprintf(&b, "%16.4f", s.Points[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCSV renders the same data as CSV for external plotting.
func RenderCSV(xLabel string, xs []string, series []Series) string {
	var b strings.Builder
	b.WriteString(xLabel)
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for i, x := range xs {
		b.WriteString(x)
		for _, s := range series {
			b.WriteByte(',')
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%.6f", s.Points[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
