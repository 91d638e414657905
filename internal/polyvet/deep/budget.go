package deep

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"

	"polyraptor/internal/polyvet"
)

// The allocbudget gate locks per-benchmark allocs/op ceilings in a
// checked-in ALLOC_BUDGET.json and fails when the newest BENCH_<n>
// report drifts over them. The ceilings come from the BENCH_0..n
// trajectory: steady-state kernels (gf256 rows, repair symbols, the
// sim event heap, the telemetry record hook) are locked at exactly 0
// allocs/op — those are the contracts the paper's GB/s codec target
// rests on — while construction-heavy cells carry a small headroom
// over the trajectory maximum, because per-op averages wobble with
// the benchmark iteration count.

// BudgetFile is the default budget filename at the repo root, and
// BenchDir the directory there that holds the BENCH_<n>.json trajectory.
const (
	BudgetFile = "ALLOC_BUDGET.json"
	BenchDir   = "bench"
)

// A BudgetCell is one benchmark's locked limits.
type BudgetCell struct {
	// AllocsPerOp is the inclusive allocs/op ceiling.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ReportMBps opts the cell into benchdrift's throughput report: a
	// >DriftMBpsTolerance MB/s regression between consecutive reports
	// is listed, never fatal; it locks nothing. Only cells whose
	// trajectory is stable across the recorded machines opt in;
	// wall-clock noise on shared runners would bury the report.
	ReportMBps bool `json:"report_mbps,omitempty"`
}

// A Budget is the parsed ALLOC_BUDGET.json.
type Budget struct {
	Schema string `json:"schema"`
	// DerivedFrom names the BENCH_<n>.json trajectory the ceilings
	// were computed from, newest last.
	DerivedFrom []string              `json:"derived_from"`
	Cells       map[string]BudgetCell `json:"cells"`
}

// LoadBudget reads and validates a budget file.
func LoadBudget(path string) (*Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("allocbudget: %w", err)
	}
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("allocbudget: parsing %s: %w", path, err)
	}
	if b.Schema != "polyvet-allocbudget/v1" {
		return nil, fmt.Errorf("allocbudget: %s: unknown schema %q", path, b.Schema)
	}
	if len(b.Cells) == 0 {
		return nil, fmt.Errorf("allocbudget: %s locks no cells", path)
	}
	return &b, nil
}

// benchReport is the subset of the polyperf report schema the gates
// consume (kept structurally independent of internal/perfbench so the
// vet tooling never imports the benchmark harness).
type benchReport struct {
	Schema  string `json:"schema"`
	Index   int    `json:"index"`
	Quick   bool   `json:"quick"`
	Results []struct {
		Name        string  `json:"name"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		MBPerS      float64 `json:"mb_per_s"`
	} `json:"results"`

	path string
}

func loadBench(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if r.Schema != "polyperf/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, r.Schema)
	}
	r.path = path
	return &r, nil
}

// benchTrajectory loads every BENCH_<n>.json under dir, ordered by
// index. Quick-mode reports are rejected: their shrunken workloads
// rename the cells and would silently unlock everything.
func benchTrajectory(dir string) ([]*benchReport, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var reports []*benchReport
	for _, p := range paths {
		r, err := loadBench(p)
		if err != nil {
			return nil, fmt.Errorf("benchdrift: %w", err)
		}
		if r.Quick {
			return nil, fmt.Errorf("benchdrift: %s is a quick-mode report; only full runs are gated", p)
		}
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Index < reports[j].Index })
	return reports, nil
}

func (r *benchReport) cell(name string) (allocs, mbps float64, ok bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res.AllocsPerOp, res.MBPerS, true
		}
	}
	return 0, 0, false
}

// CheckBudget compares the newest BENCH_<n>.json in dir against the
// budget: a locked cell over its ceiling, or missing from the report,
// is a failure; report cells absent from the budget are surfaced as
// informational, so new benchmarks get locked deliberately rather
// than silently riding along.
func CheckBudget(dir, budgetPath string) ([]polyvet.Diagnostic, error) {
	b, err := LoadBudget(budgetPath)
	if err != nil {
		return nil, err
	}
	reports, err := benchTrajectory(dir)
	if err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("allocbudget: no BENCH_<n>.json reports under %q", dir)
	}
	latest := reports[len(reports)-1]
	pos := token.Position{Filename: budgetPath, Line: 1}
	var diags []polyvet.Diagnostic
	for _, name := range sortedKeys(b.Cells) {
		cell := b.Cells[name]
		allocs, _, ok := latest.cell(name)
		if !ok {
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "allocbudget",
				Message: fmt.Sprintf("locked cell %q missing from %s — a deleted benchmark must be unlocked explicitly", name, latest.path),
			})
			continue
		}
		if allocs > cell.AllocsPerOp {
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "allocbudget",
				Message: fmt.Sprintf("%s: %s allocs/op %.2f exceeds locked ceiling %.2f",
					latest.path, name, allocs, cell.AllocsPerOp),
			})
		}
	}
	for _, res := range latest.Results {
		if _, locked := b.Cells[res.Name]; !locked {
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "allocbudget", Info: true,
				Message: fmt.Sprintf("%s: cell %q has no locked budget — add it to %s", latest.path, res.Name, budgetPath),
			})
		}
	}
	return diags, nil
}

func sortedKeys(m map[string]BudgetCell) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
