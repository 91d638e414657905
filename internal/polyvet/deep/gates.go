package deep

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"polyraptor/internal/polyvet"
)

// The three compiler-ground-truth gates. Their names are registered
// in polyvet.CompilerGates so //polyvet:allow can target them.
const (
	GateEscape = "escape"
	GateBCE    = "bce"
	GateInline = "inline"
)

// Check enforces the noalloc/nobce/inline directives of one package
// against the build's Facts and returns the diagnostics — gate
// failures plus stale function directives. Gates whose fact category
// is absent from the stream are skipped with an informational
// diagnostic instead of guessing (format drift across Go releases
// must fail safe, not fail loud with false positives).
func Check(pkg *polyvet.Package, facts *Facts) []polyvet.Diagnostic {
	var diags []polyvet.Diagnostic
	diags = append(diags, checkEscapes(pkg, facts)...)
	diags = append(diags, checkBCE(pkg, facts)...)
	diags = append(diags, checkInlines(pkg, facts)...)
	return polyvet.ApplyAllows(pkg, polyvet.CompilerGates, diags)
}

func checkEscapes(pkg *polyvet.Package, facts *Facts) []polyvet.Diagnostic {
	marks, stale := polyvet.FuncMarks(pkg, "noalloc")
	diags := append(stale, unseenAllocs(pkg, marks)...)
	if len(marks) == 0 {
		return diags
	}
	if !facts.EscapesSeen() {
		return append(diags, skipNote(pkg, GateEscape, marks[0],
			"no escape-analysis output recognized (-m format drift?); escape gate skipped"))
	}
	for _, m := range marks {
		for _, e := range facts.Escapes {
			if !inSpan(e.Pos, m) {
				continue
			}
			if e.PanicOnly() {
				continue // allocates only while crashing
			}
			verb := "escapes to heap"
			if e.Moved {
				verb = "moved to heap"
			}
			diags = append(diags, polyvet.Diagnostic{
				Pos:      position(e.Pos),
				Analyzer: GateEscape,
				Message: fmt.Sprintf("%s in noalloc function %s: %s %s%s",
					"heap allocation", m.Name, e.What, verb, escapeWhy(e)),
			})
		}
	}
	return diags
}

// unseenAllocs reports the allocations escape analysis cannot see
// from the call site: a fmt call allocates inside fmt even when its
// arguments do not box (fmt.Sprintf("x")), and `go f()` allocates a
// goroutine without any value escaping. Both are flagged syntactically
// in noalloc functions.
func unseenAllocs(pkg *polyvet.Package, marks []polyvet.FuncMark) []polyvet.Diagnostic {
	var diags []polyvet.Diagnostic
	for _, m := range marks {
		ast.Inspect(m.Decl.Body, func(n ast.Node) bool {
			what := ""
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "goroutine spawn"
			case *ast.SelectorExpr:
				if f, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
					what = "fmt." + f.Name() + " call"
				}
			}
			if what != "" {
				diags = append(diags, polyvet.Diagnostic{
					Pos:      pkg.Fset.Position(n.Pos()),
					Analyzer: GateEscape,
					Message:  fmt.Sprintf("heap allocation in noalloc function %s: %s", m.Name, what),
				})
			}
			return true
		})
	}
	return diags
}

// escapeWhy extracts the first flow step of an escape's -m=2 trace —
// the one-line answer to "why" that makes the finding actionable
// without re-running the compiler.
func escapeWhy(e EscapeSite) string {
	for _, d := range e.Details {
		if len(d) >= 5 && d[:5] == "from " {
			return " (" + d + ")"
		}
	}
	return ""
}

func checkBCE(pkg *polyvet.Package, facts *Facts) []polyvet.Diagnostic {
	marks, stale := polyvet.FuncMarks(pkg, "nobce")
	diags := append([]polyvet.Diagnostic(nil), stale...)
	if len(marks) == 0 {
		return diags
	}
	if !facts.EscapesSeen() && !facts.BoundsSeen() {
		// check_bce output can be legitimately empty for a clean
		// build, but a stream with no -m output either means the
		// flags never reached the compiler (or the format drifted):
		// don't certify loops bounds-check-free on missing data.
		return append(diags, skipNote(pkg, GateBCE, marks[0],
			"no compiler diagnostics recognized (check_bce format drift?); bce gate skipped"))
	}
	for _, m := range marks {
		loops := loopSpans(pkg.Fset, m.Decl)
		if len(loops) == 0 {
			diags = append(diags, polyvet.Diagnostic{
				Pos:      m.NamePos,
				Analyzer: GateBCE,
				Message:  fmt.Sprintf("//polyvet:nobce on %s, which has no loops — the directive pays no rent; remove it", m.Name),
			})
			continue
		}
		for _, b := range facts.Bounds {
			if b.Pos.File != m.NamePos.Filename {
				continue
			}
			for _, span := range loops {
				if b.Pos.Line >= span[0] && b.Pos.Line <= span[1] {
					kind := "bounds check (IsInBounds)"
					if b.Slice {
						kind = "slice bounds check (IsSliceInBounds)"
					}
					diags = append(diags, polyvet.Diagnostic{
						Pos:      position(b.Pos),
						Analyzer: GateBCE,
						Message: fmt.Sprintf("%s inside a loop of nobce function %s — restructure so the prove pass can eliminate it",
							kind, m.Name),
					})
					break
				}
			}
		}
	}
	return diags
}

func checkInlines(pkg *polyvet.Package, facts *Facts) []polyvet.Diagnostic {
	marks, stale := polyvet.FuncMarks(pkg, "inline")
	diags := append([]polyvet.Diagnostic(nil), stale...)
	if len(marks) == 0 {
		return diags
	}
	if !facts.InlinesSeen() {
		return append(diags, skipNote(pkg, GateInline, marks[0],
			"no inlining decisions recognized (-m format drift?); inline gate skipped"))
	}
	for _, m := range marks {
		d, ok := facts.InlineAt(m.NamePos.Filename, m.NamePos.Line)
		if !ok {
			d, ok = facts.InlineByName(m.NamePos.Filename, m.Name)
		}
		switch {
		case !ok:
			diags = append(diags, polyvet.Diagnostic{
				Pos:      m.NamePos,
				Analyzer: GateInline,
				Message:  fmt.Sprintf("no inlining decision recorded for %s (closure-only body, or name/position drift)", m.Name),
			})
		case !d.CanInline:
			reason := d.Reason
			if reason == "" {
				reason = "compiler declined"
			}
			diags = append(diags, polyvet.Diagnostic{
				Pos:      m.NamePos,
				Analyzer: GateInline,
				Message:  fmt.Sprintf("%s must stay inlinable but cannot be inlined: %s", m.Name, reason),
			})
		}
	}
	return diags
}

// loopSpans returns the [startLine, endLine] spans of every for/range
// statement in fn, including nested ones. A bounds check anywhere in
// a loop runs per iteration; one in straight-line prologue code runs
// once and is allowed.
func loopSpans(fset *token.FileSet, fn *ast.FuncDecl) [][2]int {
	var spans [][2]int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			spans = append(spans, [2]int{
				fset.Position(n.Pos()).Line,
				fset.Position(n.End()).Line,
			})
		}
		return true
	})
	return spans
}

func inSpan(p Pos, m polyvet.FuncMark) bool {
	return p.File == m.Start.Filename && p.Line >= m.Start.Line && p.Line <= m.End.Line
}

func position(p Pos) token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

func skipNote(pkg *polyvet.Package, gate string, m polyvet.FuncMark, msg string) polyvet.Diagnostic {
	return polyvet.Diagnostic{
		Pos:      m.NamePos,
		Analyzer: gate,
		Message:  pkg.Pkg.Path() + ": " + msg,
		Info:     true,
	}
}
