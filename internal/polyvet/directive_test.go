package polyvet

import (
	"go/token"
	"strings"
	"testing"
)

// The no-reason forms cannot be expressed in a want-comment fixture
// (any trailing text would become the reason), so they are unit-tested
// against the parser directly.
func TestDirectiveRequiresReason(t *testing.T) {
	cases := []struct {
		text string // after the //polyvet: prefix
		want string // substring of the malformed diagnostic
	}{
		{"", "empty //polyvet: directive"},
		{"orderfree", "needs a reason"},
		{"noalloc", "needs a reason"},
		{"allow", "needs an analyzer name and a reason"},
		{"allow detmap", "needs a reason"},
		{"allow nosuch why", "unknown analyzer"},
		{"sometimes because", "unknown //polyvet:sometimes"},
	}
	for _, c := range cases {
		d := &Directives{byFile: map[string][]*directive{}}
		d.add(token.Position{Filename: "x.go", Line: 1}, c.text)
		if len(d.malformed) != 1 {
			t.Errorf("%q: want 1 malformed diagnostic, got %d", c.text, len(d.malformed))
			continue
		}
		if msg := d.malformed[0].Message; !strings.Contains(msg, c.want) {
			t.Errorf("%q: diagnostic %q does not contain %q", c.text, msg, c.want)
		}
		if n := len(d.byFile["x.go"]); n != 0 {
			t.Errorf("%q: malformed directive was still registered (%d entries)", c.text, n)
		}
	}
}

func TestDirectiveWellFormed(t *testing.T) {
	d := &Directives{byFile: map[string][]*directive{}}
	d.add(token.Position{Filename: "x.go", Line: 3}, "orderfree XOR toggles commute")
	d.add(token.Position{Filename: "x.go", Line: 9}, "allow simclock boot-time only")
	d.add(token.Position{Filename: "x.go", Line: 12}, "noalloc benchmarked 0 allocs/op")
	if len(d.malformed) != 0 {
		t.Fatalf("unexpected malformed diagnostics: %v", d.malformed)
	}
	dirs := d.byFile["x.go"]
	if len(dirs) != 3 {
		t.Fatalf("want 3 directives, got %d", len(dirs))
	}
	if dirs[0].verb != "orderfree" || dirs[0].reason != "XOR toggles commute" {
		t.Errorf("orderfree parsed as %+v", dirs[0])
	}
	if dirs[1].verb != "allow" || dirs[1].arg != "simclock" || dirs[1].reason != "boot-time only" {
		t.Errorf("allow parsed as %+v", dirs[1])
	}
	if dirs[2].verb != "noalloc" || dirs[2].reason != "benchmarked 0 allocs/op" {
		t.Errorf("noalloc parsed as %+v", dirs[2])
	}
}

// A suppression only counts against analyzers present in the run: a
// fixture test running one analyzer must not report another
// analyzer's annotations as stale.
func TestUnusedScopedToRun(t *testing.T) {
	d := &Directives{byFile: map[string][]*directive{}}
	d.add(token.Position{Filename: "x.go", Line: 3}, "orderfree some reason")
	if got := d.unused([]*Analyzer{SimClock}); len(got) != 0 {
		t.Errorf("orderfree reported stale by a run without detmap: %v", got)
	}
	if got := d.unused(Suite()); len(got) != 1 {
		t.Errorf("want 1 stale diagnostic from a full run, got %v", got)
	}
}
