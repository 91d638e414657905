package deep

import (
	"fmt"
	"go/token"
	"math"
	"strings"

	"polyraptor/internal/polyvet"
)

// The benchdrift gate diffs consecutive BENCH_<n>.json reports: an
// allocs/op increase in any shared cell is a failure (allocation
// counts are deterministic, so any rise is a real regression, not
// noise), and a throughput move beyond DriftMBpsTolerance, a drop or a
// rise, is reported (never failed) for cells marked report_mbps in
// ALLOC_BUDGET.json.
// Time is a report, and an opt-in one, because the trajectory was
// recorded across different containers: the BENCH_3→BENCH_4 hop alone
// moved gf256 AddRow by −40% with zero code change. The socket cells
// (e2e/UDPFetch*) are judged against their ALLOC_BUDGET.json ceiling
// only: how many buffers a fetch allocates depends on how the runtime
// schedules its fetcher and servers, so a rise between reports is an
// info line there, and their ceilings are kept within a few times what
// the latest report measured (TestRepoBudgetLocksHold).

// DriftMBpsTolerance is the fractional MB/s change between consecutive
// reports beyond which a cell with report_mbps is reported.
const DriftMBpsTolerance = 0.15

// allocSlack is the fractional allocs/op headroom between consecutive
// reports for cells that do allocate: per-op averages of amortized
// allocations (map growth, slice doubling) wobble with b.N. Zero-alloc
// cells get no slack — 0 must stay exactly 0.
const allocSlack = 0.02

// socketCells prefixes the cells whose allocations depend on scheduling.
const socketCells = "e2e/UDPFetch"

// CheckDrift compares each consecutive pair of BENCH_<n>.json reports
// under dir. Budget may be nil (no MB/s locks). Cells present in only
// one report of a pair are noted informationally: benchmarks appearing
// or disappearing should be deliberate.
func CheckDrift(dir string, budget *Budget) ([]polyvet.Diagnostic, error) {
	reports, err := benchTrajectory(dir)
	if err != nil {
		return nil, err
	}
	if len(reports) < 2 {
		return nil, fmt.Errorf("benchdrift: need at least two BENCH_<n>.json reports under %q, have %d", dir, len(reports))
	}
	var diags []polyvet.Diagnostic
	for i := 1; i < len(reports); i++ {
		diags = append(diags, diffReports(reports[i-1], reports[i], budget)...)
	}
	return diags, nil
}

func diffReports(prev, cur *benchReport, budget *Budget) []polyvet.Diagnostic {
	pos := token.Position{Filename: cur.path, Line: 1}
	var diags []polyvet.Diagnostic
	for _, res := range cur.Results {
		pAllocs, pMBps, ok := prev.cell(res.Name)
		if !ok {
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "benchdrift", Info: true,
				Message: fmt.Sprintf("cell %q is new in %s (absent from %s)", res.Name, cur.path, prev.path),
			})
			continue
		}
		limit := pAllocs * (1 + allocSlack)
		if pAllocs == 0 {
			limit = 0
		}
		if res.AllocsPerOp > limit {
			verdict, info := "allocation regressions are deterministic, fix or re-budget deliberately", false
			if strings.HasPrefix(res.Name, socketCells) {
				verdict, info = "a socket cell, judged by its ceiling only", true
			}
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "benchdrift", Info: info,
				Message: fmt.Sprintf("%s: allocs/op rose %.2f → %.2f vs %s — %s",
					res.Name, pAllocs, res.AllocsPerOp, prev.path, verdict),
			})
		}
		if budget != nil && budget.Cells[res.Name].ReportMBps && pMBps > 0 {
			change := (res.MBPerS - pMBps) / pMBps
			if math.Abs(change) > DriftMBpsTolerance {
				verb, sign := "rose", "+"
				if change < 0 {
					verb, sign = "fell", "−"
				}
				diags = append(diags, polyvet.Diagnostic{
					Pos: pos, Analyzer: "benchdrift", Info: true,
					Message: fmt.Sprintf("%s: MB/s %s %.1f → %.1f (%s%.0f%%, tolerance %.0f%%) vs %s in a report_mbps cell",
						res.Name, verb, pMBps, res.MBPerS, sign, math.Abs(change)*100, DriftMBpsTolerance*100, prev.path),
				})
			}
		}
	}
	for _, res := range prev.Results {
		if _, _, ok := cur.cell(res.Name); !ok {
			diags = append(diags, polyvet.Diagnostic{
				Pos: pos, Analyzer: "benchdrift", Info: true,
				Message: fmt.Sprintf("cell %q from %s is gone in %s", res.Name, prev.path, cur.path),
			})
		}
	}
	return diags
}
