package deep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polyraptor/internal/polyvet"
)

// fixtureDir is the throwaway module with one clean and one dirty
// package, compiled for real by the live gate tests.
func fixtureDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "deepmod"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// skipOnSkew implements the format-drift contract: when the toolchain
// stops emitting recognizable diagnostics, the live tests skip loudly
// instead of failing — the canned-fixture tests keep covering the
// parser, and the skip message tells the maintainer what to refresh.
func skipOnSkew(t *testing.T, res *Result) {
	t.Helper()
	if res.FormatSkew {
		t.Skipf("compiler diagnostic format drift detected (unrecognized: %d lines) — "+
			"deep gates skipped; refresh the parsers and testdata fixtures for this toolchain",
			len(res.Facts.Unrecognized))
	}
}

func TestLiveCleanPackagePasses(t *testing.T) {
	res, err := Analyze(fixtureDir(t), []string{"./clean/"})
	if err != nil {
		t.Fatal(err)
	}
	skipOnSkew(t, res)
	if res.Fatal() {
		t.Fatalf("clean fixture package must pass all deep gates, got:\n%s", diagLines(res.Diags))
	}
}

func TestLiveDirtyPackageFailsEveryGate(t *testing.T) {
	res, err := Analyze(fixtureDir(t), []string{"./dirty/"})
	if err != nil {
		t.Fatal(err)
	}
	skipOnSkew(t, res)
	if !res.Fatal() {
		t.Fatal("dirty fixture package must fail")
	}
	wants := map[string]string{
		"escape (Leaky)":        "noalloc function Leaky",
		"escape (LeakyBuffer)":  "noalloc function LeakyBuffer",
		"bce in-loop (Gather)":  "nobce function Gather",
		"bce no-rent (NoLoops)": "pays no rent",
		"inline (Heavy)":        "cannot be inlined",
	}
	all := diagLines(res.Diags)
	for label, frag := range wants {
		if !strings.Contains(all, frag) {
			t.Errorf("injected %s regression not reported (want substring %q) in:\n%s", label, frag, all)
		}
	}
	// Gate failures must be fatal, not informational.
	for _, d := range res.Diags {
		if d.Info && d.Analyzer != polyvet.HotPath.Name {
			t.Errorf("gate finding downgraded to info: %s", d)
		}
	}
}

func TestLiveGF256KernelsBoundsCheckFree(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(root, []string{"./internal/gf256/"})
	if err != nil {
		t.Fatal(err)
	}
	skipOnSkew(t, res)
	if res.Fatal() {
		t.Fatalf("gf256 kernels must stay escape-free, bounds-check-free and within "+
			"inline budgets, got:\n%s", diagLines(res.Diags))
	}
	// The certification must be real, not vacuous: the package carries
	// nobce marks and the compiler reported bounds checks somewhere in
	// it (the allowed prologue ones).
	if !res.Facts.BoundsSeen() {
		t.Fatal("no check_bce output for gf256 — the bce gate proved nothing")
	}
}

// TestMutatedFixtureReintroducesEscape replays the canned gf256 output
// with one escape line injected inside the span of an annotated kernel
// and requires the escape gate to turn red. The injection point is
// located from the live package, not hard-coded, so the test cannot go
// vacuously green when gf256.go drifts.
//
// The canned output is keyed by gf256 line numbers, so any edit that
// moves lines in internal/gf256 turns this test red ("canned baseline
// not clean") until the fixture is regenerated from the repo root:
//
//	go build -gcflags='-m=2 -d=ssa/check_bce' ./internal/gf256/ \
//		> internal/polyvet/deep/testdata/m2_gf256.txt 2>&1
func TestMutatedFixtureReintroducesEscape(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := polyvet.Load(root, []string{"./internal/gf256/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	marks, _ := polyvet.FuncMarks(pkg, "noalloc")
	var kernel *polyvet.FuncMark
	for i := range marks {
		if marks[i].Name == "mulAddRowWords" {
			kernel = &marks[i]
		}
	}
	if kernel == nil {
		t.Fatal("mulAddRowWords is no longer annotated noalloc")
	}

	rel, err := filepath.Rel(root, kernel.Start.Filename)
	if err != nil {
		t.Fatal(err)
	}
	line := kernel.Start.Line + 1
	mutation := fmt.Sprintf(
		"%[1]s:%[2]d:9: make([]byte, 8) escapes to heap:\n"+
			"%[1]s:%[2]d:9:   flow: {heap} = &{storage for make([]byte, 8)}:\n"+
			"%[1]s:%[2]d:9:     from make([]byte, 8) (spill) at %[1]s:%[2]d:9\n",
		filepath.ToSlash(rel), line)

	canned, err := os.ReadFile(filepath.Join("testdata", "m2_gf256.txt"))
	if err != nil {
		t.Fatal(err)
	}

	clean := Check(pkg, ParseDiagnostics(string(canned), root))
	mutated := Check(pkg, ParseDiagnostics(string(canned)+mutation, root))

	if fatalCount(clean) != 0 {
		t.Errorf("canned baseline not clean:\n%s", diagLines(clean))
	}
	found := false
	for _, d := range mutated {
		if d.Analyzer == GateEscape && !d.Info &&
			strings.Contains(d.Message, "mulAddRowWords") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reintroduced heap escape in mulAddRowWords not flagged:\n%s", diagLines(mutated))
	}
}

// TestMutatedFixtureReintroducesBoundsCheck does the same for the bce
// gate: a check_bce line injected inside a kernel loop must fail.
func TestMutatedFixtureReintroducesBoundsCheck(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := polyvet.Load(root, []string{"./internal/gf256/"})
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	marks, _ := polyvet.FuncMarks(pkg, "nobce")
	if len(marks) == 0 {
		t.Fatal("gf256 has no nobce kernels any more")
	}
	m := marks[0]
	rel, err := filepath.Rel(root, m.Start.Filename)
	if err != nil {
		t.Fatal(err)
	}
	// One line into the body lands inside the first loop for all three
	// kernels... except it may hit a declaration; scan the span for a
	// line the gate attributes to a loop by injecting at each line until
	// one reports. At least one line of an annotated kernel must be in a
	// loop (nobce on loop-free functions is itself a finding).
	canned, err := os.ReadFile(filepath.Join("testdata", "m2_gf256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for line := m.Start.Line + 1; line < m.End.Line; line++ {
		mutation := fmt.Sprintf("%s:%d:13: Found IsInBounds\n", filepath.ToSlash(rel), line)
		diags := Check(pkg, ParseDiagnostics(string(canned)+mutation, root))
		for _, d := range diags {
			if d.Analyzer == GateBCE && !d.Info && strings.Contains(d.Message, m.Name) {
				return // gate went red: regression detected
			}
		}
	}
	t.Fatalf("injected in-loop bounds check in %s never reported", m.Name)
}

// TestMutatedFixtureLosesInlinability flips a can-inline decision to
// cannot-inline for an annotated function and requires the inline gate
// to fail.
func TestMutatedFixtureLosesInlinability(t *testing.T) {
	dir := fixtureDir(t)
	pkgs, err := polyvet.Load(dir, []string{"./clean/"})
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]

	canned := readFixture(t, "m2_canned.txt")
	mutated := strings.Replace(canned,
		"can inline Mix with cost 9 as: func(uint64, uint64) uint64 { a ^= b >> uint(17); return a * uint64(11400714819323198485) }",
		"cannot inline Mix: function too complex: cost 93 exceeds budget 80", 1)
	if mutated == canned {
		t.Fatal("fixture mutation did not apply — refresh m2_canned.txt")
	}

	clean := Check(pkg, ParseDiagnostics(canned, dir))
	if fatalCount(clean) != 0 {
		t.Errorf("canned baseline not clean for ./clean/:\n%s", diagLines(clean))
	}
	diags := Check(pkg, ParseDiagnostics(mutated, dir))
	found := false
	for _, d := range diags {
		if d.Analyzer == GateInline && strings.Contains(d.Message, "Mix") &&
			strings.Contains(d.Message, "cost 93") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lost inlinability of Mix not flagged:\n%s", diagLines(diags))
	}
}

// TestReconcileBothDirections pins the syntactic-vs-compiler contract:
// a hotpath finding with a stack proof downgrades to informational; a
// hotpath finding on a real escape stays fatal.
func TestReconcileBothDirections(t *testing.T) {
	dir := fixtureDir(t)
	for _, tc := range []struct {
		pattern   string
		fn        string
		downgrade bool
	}{
		{"./clean/", "StackBuffer", true},
		{"./dirty/", "LeakyBuffer", false},
	} {
		pkgs, err := polyvet.Load(dir, []string{tc.pattern})
		if err != nil {
			t.Fatal(err)
		}
		pkg := pkgs[0]
		syntactic, err := polyvet.RunPackage(pkg, []*polyvet.Analyzer{polyvet.HotPath})
		if err != nil {
			t.Fatal(err)
		}
		res, err := AnalyzePackages(dir, []string{tc.pattern}, pkgs)
		if err != nil {
			t.Fatal(err)
		}
		skipOnSkew(t, res)
		reconciled := Reconcile(syntactic, res.Facts)

		var got *polyvet.Diagnostic
		for i := range reconciled {
			if reconciled[i].Analyzer == polyvet.HotPath.Name &&
				strings.Contains(reconciled[i].Message, "make") {
				got = &reconciled[i]
			}
		}
		if got == nil {
			t.Fatalf("%s: hotpath make finding missing before/after reconcile:\n%s",
				tc.fn, diagLines(reconciled))
		}
		if got.Info != tc.downgrade {
			t.Errorf("%s: finding Info=%v, want %v (%s)", tc.fn, got.Info, tc.downgrade, got.Message)
		}
		if tc.downgrade && !strings.Contains(got.Message, "compiler proves it stack-allocated") {
			t.Errorf("%s: downgrade lacks explanation: %s", tc.fn, got.Message)
		}
	}
}

// TestReconcileFailsSafeWithoutEscapeFacts: no escape output, no
// downgrades — the stricter verdict wins when the compiler is silent.
func TestReconcileFailsSafeWithoutEscapeFacts(t *testing.T) {
	diags := []polyvet.Diagnostic{{Analyzer: polyvet.HotPath.Name, Message: "make in noalloc function F"}}
	out := Reconcile(diags, &Facts{})
	if out[0].Info {
		t.Fatal("finding downgraded with zero escape facts")
	}
}

func fatalCount(diags []polyvet.Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Info {
			n++
		}
	}
	return n
}

func diagLines(diags []polyvet.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d.String())
	}
	return b.String()
}
