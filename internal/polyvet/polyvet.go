// Package polyvet is a static-analysis suite that machine-enforces
// the simulator's determinism, RNG-stream and hot-path invariants.
// Every headline result in this repo rests on properties that are
// otherwise only spot-tested: byte-identical sweep output at any
// parallelism, traced runs bit-identical to untraced, and seeded RNG
// streams with no shared state. The project's own history shows how
// these rot silently — a tcpsim map-iteration nondeterminism shipped
// in the original code and corrupted every DCTCP figure until it was
// found by hand. polyvet turns the invariants into properties checked
// on every push.
//
// The syntactic suite:
//
//   - detmap: no `range` over a map in sim-visible packages unless
//     annotated //polyvet:orderfree <reason>.
//   - simclock: no wall-clock (time.Now/Since/Sleep/...) and no global
//     math/rand top-level functions in sim packages — time comes from
//     the engine, randomness from a named seeded stream.
//   - rngstream: every *rand.Rand is constructed through the blessed
//     deriver (sim.RNG's seeded, stream-labelled derivation) and no
//     package-level RNG state is shared across sweep workers.
//
// The //polyvet:noalloc, //polyvet:nobce and //polyvet:inline function
// directives are held to the compiler's own escape, bounds-check and
// inlining decisions by the gates in internal/polyvet/deep, which
// every polyvet run applies after the suite.
//
// polyvet is deliberately built on the standard library only (go/ast,
// go/types, `go list -export` for export data): the build environment
// has no module proxy, and the analyzers need nothing more. The
// Analyzer/Pass shapes mirror golang.org/x/tools/go/analysis so the
// suite can be rebased onto the real framework mechanically if the
// dependency ever becomes available.
package polyvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //polyvet:allow <name> suppressions.
	Name string
	// Doc is the one-paragraph description printed by `polyvet help`.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees. Test files (_test.go)
	// are excluded by the drivers: the enforced invariants are about
	// shipped sim code; tests assert on outputs and may freely use
	// wall-clock and map iteration.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Directives holds the package's parsed //polyvet: comments.
	Directives *Directives

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with its position resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Info marks an informational diagnostic: printed, but not a
	// failure: the compiler gates' skip-and-warn notes when a
	// toolchain's diagnostic format is unrecognized, and the benchmark
	// gates' reports (throughput drift, unlocked cells).
	Info bool
}

func (d Diagnostic) String() string {
	sev := ""
	if d.Info {
		sev = "info: "
	}
	return fmt.Sprintf("%s: %s[%s] %s", d.Pos, sev, d.Analyzer, d.Message)
}

// Suite returns the full analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DetMap,
		SimClock,
		RNGStream,
	}
}

// A Package is one type-checked unit handed to RunPackage by a driver
// (the module loader or the fixture harness).
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunPackage runs the given analyzers over one package and returns
// the surviving diagnostics sorted by position: suppressed findings
// (matched by an adjacent //polyvet: directive) are dropped, and
// stale directives that suppressed nothing are themselves reported —
// an annotation must pay rent by silencing a real finding, so escape
// hatches cannot outlive the code they excused.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	files := withoutTestFiles(pkg.Fset, pkg.Files)
	dirs := parseDirectives(pkg.Fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      files,
			Pkg:        pkg.Pkg,
			TypesInfo:  pkg.Info,
			Directives: dirs,
			diags:      &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("polyvet: %s: %w", a.Name, err)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if dirs.suppress(d) {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, dirs.unused(analyzers)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

func withoutTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// simVisible reports whether pkg is one of the packages whose code
// runs inside (or feeds) the deterministic simulation, where the
// detmap/simclock/rngstream invariants apply. Matching is by package
// name so analysistest fixtures can model sim packages directly.
var simPackageNames = map[string]bool{
	"sim":        true,
	"netsim":     true,
	"polyraptor": true,
	"tcpsim":     true,
	"chaos":      true,
	"raptorq":    true,
	"store":      true,
	"sweep":      true,
	"workload":   true,
	"harness":    true,
	"topology":   true,
	"telemetry":  true,
	"metrics":    true,
}

func simVisible(pkg *types.Package) bool {
	return pkg != nil && simPackageNames[pkg.Name()]
}

// funcFor returns the object of a call's callee if statically known,
// whether a plain function or a method.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether f is the package-level function
// pkgpath.name (not a method).
func isPkgFunc(f *types.Func, pkgpath, name string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgpath && f.Name() == name
}
