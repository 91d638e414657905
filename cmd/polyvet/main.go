// Command polyvet runs the repo's custom determinism/RNG/hot-path
// analyzer suite (internal/polyvet). It drives in two modes:
//
//	polyvet [-deep] [-analyzers a,b] [packages]   standalone, via `go list`
//	go vet -vettool=$(which polyvet) [-deep] ./...  unitchecker protocol
//
// -deep additionally compiles each package with
// -gcflags='-m=2 -d=ssa/check_bce' and enforces the //polyvet:noalloc,
// //polyvet:nobce and //polyvet:inline directives against the
// compiler's real escape, bounds-check and inlining decisions
// (internal/polyvet/deep), reconciling the syntactic hotpath findings
// against the compiler's stack proofs along the way.
//
// Two benchmark gates run instead of package analysis when package
// patterns are omitted, over the reports in -benchdir (default bench/):
//
//	polyvet -allocbudget ALLOC_BUDGET.json   newest BENCH_<n>.json vs ceilings
//	polyvet -benchdrift                      consecutive BENCH_<n>.json diffs
//
// Standalone package mode defaults to ./... in the current module.
// Exit status: 0 clean (informational findings do not fail), 2
// findings, 1 internal error (matching go vet's conventions).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"polyraptor/internal/polyvet"
	"polyraptor/internal/polyvet/deep"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet handshakes before sending any cfg; answer them first.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			polyvet.PrintVersion(os.Stdout, "polyvet")
			return 0
		case a == "-flags" || a == "--flags":
			polyvet.PrintFlagDefs(os.Stdout)
			return 0
		}
	}

	fs := flag.NewFlagSet("polyvet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: polyvet [-deep] [-analyzers names] [package patterns]\n")
		fmt.Fprintf(fs.Output(), "       polyvet [-allocbudget file] [-benchdrift] [-benchdir dir]\n")
		fmt.Fprintf(fs.Output(), "       go vet -vettool=$(which polyvet) -deep ./...\n\nanalyzers:\n")
		for _, a := range polyvet.Suite() {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	names := fs.String("analyzers", "", "comma-separated subset of the suite (default: all)")
	deepMode := fs.Bool("deep", false, "also run the compiler-ground-truth gates (escape, bce, inline)")
	budgetPath := fs.String("allocbudget", "", "check the newest BENCH_<n>.json against this budget file")
	benchDrift := fs.Bool("benchdrift", false, "diff consecutive BENCH_<n>.json reports for alloc/throughput drift")
	benchDir := fs.String("benchdir", deep.BenchDir, "directory holding the BENCH_<n>.json trajectory")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}

	rest := fs.Args()

	// Benchmark gates: with no package patterns they run alone, so CI
	// can gate reports without re-analyzing the tree.
	if (*budgetPath != "" || *benchDrift) && len(rest) == 0 {
		return report(runBenchGates(*benchDir, *budgetPath, *benchDrift))
	}

	var sel []string
	if *names != "" {
		sel = strings.Split(*names, ",")
	}
	analyzers, err := polyvet.ByName(sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if len(rest) == 1 && polyvet.IsVetCfg(rest[0]) {
		unit, err := polyvet.LoadUnit(rest[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if unit.Pkg == nil {
			return 0
		}
		diags, err := polyvet.RunPackage(unit.Pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *deepMode && !unit.Test {
			res, err := deep.AnalyzePackages(unit.Dir, []string{unit.ImportPath}, []*polyvet.Package{unit.Pkg})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			diags = deep.Reconcile(diags, res.Facts)
			diags = append(diags, res.Diags...)
		}
		return report(diags)
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := polyvet.Load("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var all []polyvet.Diagnostic
	for _, pkg := range pkgs {
		diags, err := polyvet.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all = append(all, diags...)
	}
	if *deepMode {
		res, err := deep.AnalyzePackages("", patterns, pkgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all = deep.Reconcile(all, res.Facts)
		all = append(all, res.Diags...)
	}
	if *budgetPath != "" || *benchDrift {
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
