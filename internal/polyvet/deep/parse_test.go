package deep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The canned fixtures are verbatim `go build -gcflags='-m=2
// -d=ssa/check_bce'` output captured from go1.24:
//
//	m2_canned.txt  the testdata/src/deepmod module (clean + dirty)
//	m2_gf256.txt   the real internal/gf256 package
//
// They let the parser tests run without invoking the compiler, pinning
// the exact message grammar this package understands. If a future Go
// release drifts the wording, TestParseLiveOutput (which does compile)
// skips with a warning while these keep guarding the parser itself.

func readFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return string(data)
}

func TestParseCannedDeepmod(t *testing.T) {
	facts := ParseDiagnostics(readFixture(t, "m2_canned.txt"), "/mod")

	if !facts.EscapesSeen() || !facts.InlinesSeen() || !facts.BoundsSeen() {
		t.Fatalf("fact categories missing: escapes=%v inlines=%v bounds=%v",
			facts.EscapesSeen(), facts.InlinesSeen(), facts.BoundsSeen())
	}
	if len(facts.Unrecognized) != 0 {
		t.Errorf("unrecognized lines in canned fixture: %q", facts.Unrecognized)
	}

	// The panic-string escape in clean.Guarded must parse with its flow
	// trace and classify as panic-only.
	var panicEscape *EscapeSite
	for i := range facts.Escapes {
		if strings.Contains(facts.Escapes[i].What, "empty input") {
			panicEscape = &facts.Escapes[i]
		}
	}
	if panicEscape == nil {
		t.Fatal("panic-string escape not parsed")
	}
	if len(panicEscape.Details) == 0 {
		t.Error("panic escape lost its flow trace")
	}
	if !panicEscape.PanicOnly() {
		t.Errorf("panic-string escape not classified panic-only: details=%q", panicEscape.Details)
	}

	// dirty.Leaky's local must be a non-panic escape at a resolved path.
	var leaky *EscapeSite
	for i := range facts.Escapes {
		if facts.Escapes[i].What == "x" {
			leaky = &facts.Escapes[i]
		}
	}
	if leaky == nil {
		t.Fatal("dirty.Leaky escape not parsed")
	}
	if leaky.PanicOnly() {
		t.Error("real escape misclassified panic-only")
	}
	if want := filepath.Join("/mod", "dirty", "dirty.go"); leaky.Pos.File != want {
		t.Errorf("escape path not resolved against dir: got %q want %q", leaky.Pos.File, want)
	}

	// -m=2 prints each escape twice (with and without the flow-trace
	// colon); the duplicate must collapse to one site.
	count := 0
	for _, e := range facts.Escapes {
		if e.What == "x" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("duplicate escape lines not collapsed: %d sites for dirty.Leaky", count)
	}

	// Inline decisions: dirty.Heavy must be a cannot-inline with the
	// compiler's reason; clean.Mix a can-inline.
	d, ok := facts.InlineByName(filepath.Join("/mod", "dirty", "dirty.go"), "Heavy")
	if !ok {
		t.Fatal("no inline decision for dirty.Heavy")
	}
	if d.CanInline || !strings.Contains(d.Reason, "DEFER") {
		t.Errorf("Heavy decision wrong: can=%v reason=%q", d.CanInline, d.Reason)
	}
	m, ok := facts.InlineByName(filepath.Join("/mod", "clean", "clean.go"), "Mix")
	if !ok || !m.CanInline {
		t.Errorf("clean.Mix should be inlinable: ok=%v can=%v", ok, m.CanInline)
	}

	// Bounds checks: the two unprovable checks in dirty.Gather's loop
	// plus the two prologue reslices in clean.XorWords.
	if len(facts.Bounds) != 4 {
		t.Errorf("bounds checks parsed: got %d want 4: %+v", len(facts.Bounds), facts.Bounds)
	}

	// Stack proofs feed the reconciliation path.
	cleanFile := filepath.Join("/mod", "clean", "clean.go")
	proved := false
	for _, s := range facts.NoEscapes {
		if s.Pos.File == cleanFile && strings.Contains(s.What, "make([]byte, 64)") {
			proved = ProvedStackAtSite(facts, s.Pos)
		}
	}
	if !proved {
		t.Error("StackBuffer's make([]byte, 64) stack proof not parsed")
	}
}

// Two panic strings in one function: the compiler prints both flow
// traces and then both bare lines, so the first site's bare twin does
// not directly follow it. Both must still collapse, or the twin (which
// has no trace) reads as a real allocation — as it did for sim.At's
// second argument check.
func TestParseCollapsesInterleavedDuplicates(t *testing.T) {
	const out = `# polyraptor/internal/sim
internal/sim/sim.go:145:9: "past" escapes to heap:
internal/sim/sim.go:145:9:   flow: {heap} = &{storage for "past"}:
internal/sim/sim.go:145:9:     from "past" (spill) at internal/sim/sim.go:145:9
internal/sim/sim.go:145:9:     from panic("past") (call parameter) at internal/sim/sim.go:145:8
internal/sim/sim.go:148:9: "nil" escapes to heap:
internal/sim/sim.go:148:9:   flow: {heap} = &{storage for "nil"}:
internal/sim/sim.go:148:9:     from "nil" (spill) at internal/sim/sim.go:148:9
internal/sim/sim.go:148:9:     from panic("nil") (call parameter) at internal/sim/sim.go:148:8
internal/sim/sim.go:145:9: "past" escapes to heap
internal/sim/sim.go:148:9: "nil" escapes to heap
`
	facts := ParseDiagnostics(out, "/repo")
	if len(facts.Escapes) != 2 {
		t.Fatalf("parsed %d escape sites, want 2: %+v", len(facts.Escapes), facts.Escapes)
	}
	for _, e := range facts.Escapes {
		if !e.PanicOnly() {
			t.Errorf("%s at line %d not classified panic-only", e.What, e.Pos.Line)
		}
	}
}

// ProvedStackAtSite adapts ProvedStackAt for a parsed position.
func ProvedStackAtSite(f *Facts, p Pos) bool { return f.ProvedStackAt(p.File, p.Line) }

func TestParseCannedGF256(t *testing.T) {
	facts := ParseDiagnostics(readFixture(t, "m2_gf256.txt"), "/repo")
	if !facts.EscapesSeen() || !facts.InlinesSeen() || !facts.BoundsSeen() {
		t.Fatalf("fact categories missing from gf256 fixture")
	}
	if len(facts.Unrecognized) != 0 {
		t.Errorf("unrecognized lines in gf256 fixture: %q", facts.Unrecognized)
	}
	// The kernel contracts, as captured: every bounds check in the file
	// sits outside the *Words loops (verified structurally by the gate
	// tests; here just pin that checks parsed at all).
	if len(facts.Bounds) == 0 {
		t.Fatal("no bounds checks parsed from gf256 fixture")
	}
	if _, ok := facts.InlineByName(filepath.Join("/repo", "internal", "gf256", "gf256.go"), "Mul"); !ok {
		t.Error("gf256.Mul inline decision not parsed")
	}
}

func TestSplitPos(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		file string
		l, c int
		msg  string
	}{
		{"pkg/a.go:12:7: moved to heap: x", true, "/d/pkg/a.go", 12, 7, "moved to heap: x"},
		{"/abs/b.go:3:1: can inline F", true, "/abs/b.go", 3, 1, "can inline F"},
		{"pkg/a.go:12:7:   from &x (address-of) at pkg/a.go:13:9", true, "/d/pkg/a.go", 12, 7, "  from &x (address-of) at pkg/a.go:13:9"},
		{"<autogenerated>:1:2: leaking param", false, "", 0, 0, ""},
		{"# deepmod/clean", false, "", 0, 0, ""},
		{"no position here", false, "", 0, 0, ""},
		{"pkg/a.go:x:7: bad line", false, "", 0, 0, ""},
	}
	for _, tc := range cases {
		pos, msg, ok := splitPos(tc.line, "/d")
		if ok != tc.ok {
			t.Errorf("splitPos(%q): ok=%v want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if pos.File != tc.file || pos.Line != tc.l || pos.Col != tc.c || msg != tc.msg {
			t.Errorf("splitPos(%q) = %+v %q", tc.line, pos, msg)
		}
	}
}

func TestFormatDriftCollectsUnrecognized(t *testing.T) {
	out := "clean/a.go:1:1: the compiler now says something novel\n"
	facts := ParseDiagnostics(out, "/m")
	if len(facts.Unrecognized) != 1 {
		t.Fatalf("unrecognized = %q, want 1 entry", facts.Unrecognized)
	}
	if facts.EscapesSeen() || facts.InlinesSeen() || facts.BoundsSeen() {
		t.Error("novel wording must not count as recognized output")
	}
}
