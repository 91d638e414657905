package deep

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"polyraptor/internal/polyvet"
)

// GCFlags is the compiler flag set the gates build with: -m=2 for
// escape analysis with flow traces and inlining decisions with costs,
// check_bce for the bounds checks the SSA prove pass kept.
const GCFlags = "-m=2 -d=ssa/check_bce"

// A Result is one run's findings. Fatal reports whether any
// non-informational diagnostic is present (the exit-status signal).
type Result struct {
	Diags []polyvet.Diagnostic
	// FormatSkew is set when a gate skipped because the toolchain's
	// diagnostic stream was unrecognizable — the signal for tests to
	// skip-and-warn rather than fail on a new Go release.
	FormatSkew bool
	// Facts is the parsed compiler model, exposed for tests.
	Facts *Facts
}

// Fatal reports whether the result contains failing diagnostics.
func (r *Result) Fatal() bool {
	for _, d := range r.Diags {
		if !d.Info {
			return true
		}
	}
	return false
}

// Analyze is PolyVet's one run. It loads the packages matching
// patterns (rooted at dir, "" = cwd), runs the syntactic suite over
// each, compiles them with GCFlags, and enforces the noalloc, nobce
// and inline directives against the compiler's decisions.
func Analyze(dir string, patterns []string) (*Result, error) {
	pkgs, err := polyvet.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	out, err := CompileDiagnostics(dir, patterns)
	if err != nil {
		return nil, err
	}
	facts := ParseDiagnostics(out, moduleRoot(dir))
	res := &Result{Facts: facts}
	for _, pkg := range pkgs {
		diags, err := polyvet.RunPackage(pkg, polyvet.Suite())
		if err != nil {
			return nil, err
		}
		for _, d := range Check(pkg, facts) {
			res.FormatSkew = res.FormatSkew || isSkipNote(d)
			diags = append(diags, d)
		}
		res.Diags = append(res.Diags, diags...)
	}
	sortDiags(res.Diags)
	return res, nil
}

// CompileDiagnostics shells `go build` with GCFlags over patterns and
// returns the raw diagnostic stream. Binaries of main packages land
// in a throwaway directory. The go command replays cached compiler
// output, so repeated runs are cheap and still yield the full stream.
func CompileDiagnostics(dir string, patterns []string) (string, error) {
	tmp, err := os.MkdirTemp("", "polyvet-deep-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	args := append([]string{"build", "-o", tmp, "-gcflags", GCFlags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil && strings.Contains(string(out), "no main packages") {
		// -o requires at least one main package; without it go build
		// compiles and discards the objects, which is all we need.
		cmd = exec.Command("go", append([]string{"build", "-gcflags", GCFlags}, patterns...)...)
		cmd.Dir = dir
		out, err = cmd.CombinedOutput()
	}
	if err != nil {
		// Compiler diagnostics go to stderr but build FAILURES do too;
		// with -m the command succeeds and still prints. A non-nil err
		// means the build itself broke.
		return "", fmt.Errorf("polyvet deep: go build %v: %v\n%s", patterns, err, out)
	}
	return string(out), nil
}

// moduleRoot returns the base directory the compiler's relative
// diagnostic paths resolve against. The gc driver prints positions
// relative to the enclosing module's root, not the working directory
// (verified empirically: building ./sim/ from internal/ still prints
// internal/sim/sim.go), so joining against dir itself would break
// every position match when dir is a package subdirectory.
func moduleRoot(dir string) string {
	if dir == "" {
		dir = "."
	}
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	if out, err := cmd.Output(); err == nil {
		gomod := strings.TrimSpace(string(out))
		if gomod != "" && gomod != os.DevNull {
			return filepath.Dir(gomod)
		}
	}
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return dir
}

func isSkipNote(d polyvet.Diagnostic) bool {
	return d.Info && (d.Analyzer == GateEscape || d.Analyzer == GateBCE || d.Analyzer == GateInline)
}

func sortDiags(diags []polyvet.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
}
