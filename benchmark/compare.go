package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// resultSet is what the all-workload mode writes with -out and what
// -compare reads: every run of every workload, as the runs printed them.
type resultSet struct {
	Schema  string   `json:"schema"`
	Go      string   `json:"go"`
	NumCPU  int      `json:"num_cpu"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick"`
	Runs    []runRow `json:"runs"`
}

type runRow struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

const resultSchema = "polybench/v1"

// values returns one end-to-end metric of one workload over the untraced
// runs of a set, in run order.
func (rs resultSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// runSuite runs every workload in a process of its own — so that peak RSS
// belongs to one workload — runs times untraced and once traced, prints a
// summary and optionally stores the result set.
func runSuite(seed int64, seconds float64, runs int, quickMode bool, out, traceDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Schema: resultSchema, Go: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: seconds, Quick: quickMode}
	status := 0
	child := func(workload string, seed int64, trace int) {
		args := []string{
			"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"-trace-dir", traceDir,
		}
		if quickMode {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		output, err := cmd.Output()
		stdout.Write(output)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s seed %d trace %d: %v\n", workload, seed, trace, err)
			status = 1
		}
		lines := bytes.Split(bytes.TrimSpace(output), []byte("\n"))
		var res result
		if json.Unmarshal(lines[len(lines)-1], &res) != nil {
			status = 1
			return
		}
		set.Runs = append(set.Runs, runRow{workload, seed, trace, res})
	}
	for _, w := range workloadNames {
		for r := 0; r < runs; r++ {
			child(w, seed+int64(r), 0)
		}
		child(w, seed, 1)
	}

	fmt.Fprintf(stdout, "\nsummary: %d untraced run(s) per workload, median [quartile spread as a share of the median]\n", runs)
	fmt.Fprintf(stdout, "  %-16s", "metric")
	for _, w := range workloadNames {
		fmt.Fprintf(stdout, " %24s", w)
	}
	fmt.Fprintln(stdout)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-16s", m.Name)
		for _, w := range workloadNames {
			xs := set.values(w, m.Name)
			fmt.Fprintf(stdout, " %15.6g [%5.2f%%]", median(xs), 100*quartileSpread(xs))
		}
		fmt.Fprintf(stdout, "  %s, %s is better, bound %.2f\n", m.Unit, m.Better, m.Bound)
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

func loadResultSet(path string) (resultSet, error) {
	var rs resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != resultSchema {
		return rs, fmt.Errorf("%s: schema %q, want %q", path, rs.Schema, resultSchema)
	}
	return rs, nil
}

// compareFiles is -compare: B against A, per (workload, end-to-end metric).
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]resultSet
	for i, path := range []string{pathA, pathB} {
		rs, err := loadResultSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sets[i] = rs
	}
	if compareSets(sets[0], sets[1], stdout) {
		return 1
	}
	return 0
}

// compareSets prints, for every pairing of workload and end-to-end metric,
// how much worse B's median is than A's against the metric's bound. A
// pairing whose run-to-run quartile spread exceeds the bound is reported as
// unresolved, never as unchanged. It returns true when B regressed: a
// resolved metric worse by more than its bound, or more failed operations.
func compareSets(a, b resultSet, w io.Writer) (regressed bool) {
	fmt.Fprintf(w, "%-13s %-15s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			xa, xb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-13s %-15s missing from a result set\n", wl, m.Name)
				regressed = true
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(xa), quartileSpread(xb))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved: spread exceeds the bound"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-15s %14.6g %14.6g %+8.2f%% %7.2f%% %5.0f%%  %s\n",
				wl, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		fa, fb := failures(a, wl), failures(b, wl)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-13s %-15s %14d %14d %44s\n", wl, "failed", fa, fb, verdict)
		if same, shared := exactRuns(a, b, wl); shared > 0 {
			fmt.Fprintf(w, "%-13s simulated results and sim.events identical in %d of %d shared (seed, trace) runs\n", wl, same, shared)
		}
	}
	return regressed
}

func failures(rs resultSet, workload string) int {
	n := 0
	for _, r := range rs.Runs {
		if r.Workload == workload {
			n += r.Result.Failed
			if !r.Result.Correct {
				n++
			}
		}
	}
	return n
}

// exactRuns counts the (seed, trace) runs of a simulation workload that
// both sets hold, and those among them whose seed-determined numbers —
// simulated goodput and completion times, and the event count — are
// identical. It is information, not a verdict: a deliberate protocol change
// moves them.
func exactRuns(a, b resultSet, workload string) (same, shared int) {
	if workload != wlSimRQ && workload != wlSimTCP {
		return 0, 0
	}
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != workload || rb.Workload != workload || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			shared++
			ok := true
			for _, name := range []string{"goodput_mbps", "xfer_p50_ms", "xfer_p95_ms", "sim.events"} {
				ok = ok && ra.Result.Metrics[name] == rb.Result.Metrics[name]
			}
			if ok {
				same++
			}
		}
	}
	return same, shared
}
