// Command polyvet runs the repo's determinism, RNG-stream and hot-path
// checks (internal/polyvet). There is one way to run it:
//
//	polyvet [packages]   default ./... in the current module
//
// It loads the packages through `go list`, runs the detmap, simclock
// and rngstream analyzers, then compiles them with
// -gcflags='-m=2 -d=ssa/check_bce' and holds the //polyvet:noalloc,
// //polyvet:nobce and //polyvet:inline directives to the compiler's
// real escape, bounds-check and inlining decisions
// (internal/polyvet/deep).
//
// Two benchmark gates run over the reports in -benchdir (default
// bench/), instead of package analysis when package patterns are
// omitted:
//
//	polyvet -allocbudget ALLOC_BUDGET.json   newest BENCH_<n>.json vs ceilings
//	polyvet -benchdrift                      consecutive BENCH_<n>.json diffs
//
// Exit status: 0 clean (informational findings do not fail), 2
// findings, 1 internal error (matching go vet's conventions).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"

	"polyraptor/internal/polyvet"
	"polyraptor/internal/polyvet/deep"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("polyvet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: polyvet [package patterns]\n")
		fmt.Fprintf(fs.Output(), "       polyvet [-allocbudget file] [-benchdrift] [-benchdir dir]\n\nanalyzers:\n")
		for _, a := range polyvet.Suite() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "compiler gates: %v\n", polyvet.CompilerGates)
		fs.PrintDefaults()
	}
	budgetPath := fs.String("allocbudget", "", "check the newest BENCH_<n>.json against this budget file")
	benchDrift := fs.Bool("benchdrift", false, "diff consecutive BENCH_<n>.json reports for alloc/throughput drift")
	benchDir := fs.String("benchdir", deep.BenchDir, "directory holding the BENCH_<n>.json trajectory")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}

	patterns := fs.Args()
	benchGates := *budgetPath != "" || *benchDrift

	// Benchmark gates: with no package patterns they run alone, so CI
	// can gate reports without re-analyzing the tree.
	if benchGates && len(patterns) == 0 {
		return report(runBenchGates(*benchDir, *budgetPath, *benchDrift))
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := deep.Analyze("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	all := res.Diags
	if benchGates {
		all = append(all, runBenchGates(*benchDir, *budgetPath, *benchDrift)...)
	}
	return report(all)
}

// runBenchGates runs the allocbudget and/or benchdrift checks,
// converting setup errors into failing diagnostics so a missing or
// malformed report never passes silently.
func runBenchGates(dir, budgetPath string, drift bool) []polyvet.Diagnostic {
	var diags []polyvet.Diagnostic
	var budget *deep.Budget
	if budgetPath != "" {
		d, err := deep.CheckBudget(dir, budgetPath)
		if err != nil {
			return append(diags, errDiag(budgetPath, err))
		}
		diags = append(diags, d...)
		budget, _ = deep.LoadBudget(budgetPath)
	}
	if drift {
		d, err := deep.CheckDrift(dir, budget)
		if err != nil {
			return append(diags, errDiag(dir, err))
		}
		diags = append(diags, d...)
	}
	return diags
}

func errDiag(file string, err error) polyvet.Diagnostic {
	return polyvet.Diagnostic{
		Pos:      token.Position{Filename: file, Line: 1},
		Analyzer: "polyvet",
		Message:  err.Error(),
	}
}

func report(diags []polyvet.Diagnostic) int {
	fatal := false
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
		if !d.Info {
			fatal = true
		}
	}
	if fatal {
		return 2
	}
	return 0
}
