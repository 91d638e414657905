package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"polyraptor/internal/stats"
)

// Rendering. JSON is the machine-readable archive format: it contains
// no wall-clock or host-dependent fields, so the same matrix always
// marshals to the same bytes regardless of parallelism (map values are
// marshalled with sorted keys by encoding/json).

// JSON renders the result as indented, deterministic JSON.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders one row per (cell, metric) with the full aggregate, for
// external plotting.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,backend,params,metric,n,mean,ci95,min,p50,p95,p99,max\n")
	for _, c := range r.Cells {
		var params []string
		for _, k := range sortedKeys(c.Params) {
			params = append(params, k+"="+c.Params[k])
		}
		for _, a := range c.Metrics {
			fmt.Fprintf(&b, "%s,%s,%s,%s,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
				c.Scenario, c.Backend, strings.Join(params, " "), a.Metric,
				a.N, a.Mean, a.CI95, a.Min, a.P50, a.P95, a.P99, a.Max)
		}
		// Histogram aggregates share the row shape; n is the pooled
		// per-sample count and the ci95 column is empty (percentiles
		// are over the pooled distribution, not per-rep scalars).
		for _, a := range c.Hists {
			fmt.Fprintf(&b, "%s,%s,%s,%s,%d,%.6g,,%.6g,%.6g,%.6g,%.6g,%.6g\n",
				c.Scenario, c.Backend, strings.Join(params, " "), a.Metric+"_hist",
				a.Count, a.Mean, a.Min, a.P50, a.P95, a.P99, a.Max)
		}
	}
	return b.String()
}

// MetricNames returns the sorted union of metric names across cells.
func (r *Result) MetricNames() []string {
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for _, a := range c.Metrics {
			seen[a.Metric] = true
		}
	}
	return sortedKeys(seen)
}

// Table renders the result through the existing aligned-table
// renderer: one row per cell, one mean and one ±CI95 column per
// metric. An empty metric list selects every metric in the result.
func (r *Result) Table(metrics []string) string {
	if len(metrics) == 0 {
		metrics = r.MetricNames()
	}
	rows := make([]string, len(r.Cells))
	for i, c := range r.Cells {
		rows[i] = c.Scenario + "/" + c.Backend
	}
	var cols []stats.Series
	for _, name := range metrics {
		mean := stats.Series{Name: name}
		ci := stats.Series{Name: "±CI95"}
		for _, c := range r.Cells {
			if a, ok := c.Metric(name); ok {
				mean.Points = append(mean.Points, a.Mean)
				ci.Points = append(ci.Points, a.CI95)
			} else {
				// RenderTable prints NaN points as "-".
				mean.Points = append(mean.Points, math.NaN())
				ci.Points = append(ci.Points, math.NaN())
			}
		}
		cols = append(cols, mean, ci)
	}
	table := stats.RenderTable("cell", rows, cols)
	var b strings.Builder
	fmt.Fprintf(&b, "== sweep: %d cells x %d seeds (base seed %d) ==\n",
		len(r.Cells), r.Seeds, r.BaseSeed)
	b.WriteString(table)
	if lines := r.histLines(); len(lines) > 0 {
		b.WriteString("\npooled distributions (histogram, rel err ≤ 0.8%):\n")
		for _, l := range lines {
			b.WriteString("  " + l + "\n")
		}
	}
	if errs := r.errorLines(); len(errs) > 0 {
		b.WriteString("\nerrors:\n")
		for _, e := range errs {
			b.WriteString("  " + e + "\n")
		}
	}
	return b.String()
}

// histLines renders each cell's pooled histogram aggregates as
// compact one-liners for the table view.
func (r *Result) histLines() []string {
	var out []string
	for _, c := range r.Cells {
		for _, a := range c.Hists {
			out = append(out, fmt.Sprintf("%s/%s %s: n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
				c.Scenario, c.Backend, a.Metric, a.Count, a.Mean, a.P50, a.P95, a.P99, a.Max))
		}
	}
	return out
}

// errorLines flattens per-cell errors into "cell: error" lines.
func (r *Result) errorLines() []string {
	var out []string
	for _, c := range r.Cells {
		for _, e := range c.Errors {
			out = append(out, c.Scenario+"/"+c.Backend+": "+e)
		}
	}
	return out
}

// Emit is the shared tail of every CLI sweep path: run the matrix,
// write the aggregate to out as "table", "csv" or "json", and report
// failures on errw under the program's name. It returns the process
// exit code: 0, or 1 when the sweep or any repetition failed.
func (m Matrix) Emit(prog, format string, out, errw io.Writer) int {
	res, err := m.Run()
	if err == nil {
		err = res.Write(out, format)
	}
	if err != nil {
		fmt.Fprintf(errw, "%s: %v\n", prog, err)
		return 1
	}
	if errs := res.errorLines(); len(errs) > 0 {
		fmt.Fprintf(errw, "%s: %d run(s) failed, first: %s\n", prog, len(errs), errs[0])
		return 1
	}
	return 0
}

// Write renders the result in the named format: "table", "csv" or
// "json" (newline-terminated).
func (r *Result) Write(w io.Writer, format string) error {
	switch format {
	case "table":
		_, err := io.WriteString(w, r.Table(nil))
		return err
	case "csv":
		_, err := io.WriteString(w, r.CSV())
		return err
	case "json":
		js, err := r.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(append(js, '\n'))
		return err
	}
	return fmt.Errorf("unknown format %q (table|csv|json)", format)
}
