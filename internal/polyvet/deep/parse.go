// Package deep is PolyVet's compiler-ground-truth mode: instead of
// pattern-matching the AST (the syntactic suite in internal/polyvet),
// it derives facts from the gc toolchain itself by compiling each
// package with `-gcflags='-m=2 -d=ssa/check_bce'` and parsing the
// diagnostic stream into a structured model — heap-escape decisions
// (with the compiler's own flow traces), bounds-check sites the SSA
// prove pass could not eliminate, and inlining decisions with costs.
//
// Three function directives are enforced against that model:
//
//   - //polyvet:noalloc — no "escapes to heap" / "moved to heap" site
//     inside the function (panic-only escapes exempt: a constant that
//     heap-boxes on the crash path never allocates in steady state).
//     This is the interprocedural upgrade of the syntactic hotpath
//     check, and also its corrector: a make/closure the compiler
//     proves stack-allocated downgrades the syntactic finding to
//     informational (see Reconcile).
//   - //polyvet:nobce — the function's loops compile with zero bounds
//     checks. Prologue checks outside loops (the `dst =
//     dst[:len(src)]` hint idiom) are allowed: they run once, not per
//     element.
//   - //polyvet:inline — the compiler reports "can inline"; losing
//     inlinability (cost creep past the budget, a new call to a
//     non-inlinable callee) is a finding.
//
// The parsers are deliberately tolerant of message drift across Go
// releases: any diagnostic-shaped line that matches no known pattern
// is collected, and a gate whose entire fact category is missing
// skips with a warning instead of reporting false positives (see
// Facts.EscapesSeen and friends).
package deep

import (
	"path/filepath"
	"strconv"
	"strings"
)

// A Pos is a resolved source position (column as reported by the
// compiler, which counts bytes from 1).
type Pos struct {
	File string
	Line int
	Col  int
}

// An EscapeSite is one "escapes to heap" or "moved to heap" decision:
// a real heap allocation attributed to this position.
type EscapeSite struct {
	Pos  Pos
	What string // the expression or variable, as printed
	// Moved distinguishes "moved to heap: x" (a variable forced off
	// the stack) from "x escapes to heap" (a value that flows out).
	Moved bool
	// Details holds the indented flow-trace lines (-m=2 only),
	// verbatim with the position prefix stripped.
	Details []string
}

// PanicOnly reports whether every flow step of the escape runs only
// when panicking — the constant-spill-into-panic pattern. Such a site
// allocates exactly once, while crashing, and is exempt from the
// noalloc gate.
func (e EscapeSite) PanicOnly() bool {
	found := false
	for _, d := range e.Details {
		d = strings.TrimSpace(d)
		if !strings.HasPrefix(d, "from ") {
			continue
		}
		if strings.HasPrefix(d, "from panic(") {
			found = true
			continue
		}
		// Spills feeding the panic argument are part of the same
		// pattern; any other flow step means the value also escapes on
		// a non-panic path.
		if !strings.Contains(d, "(spill)") {
			return false
		}
	}
	return found
}

// A NoEscapeSite is a compiler proof that the value allocated at Pos
// stays on the stack ("... does not escape").
type NoEscapeSite struct {
	Pos  Pos
	What string
}

// An InlineDecision is the compiler's verdict on one function.
type InlineDecision struct {
	Pos       Pos
	Name      string // compiler-style: Name, T.Name or (*T).Name
	CanInline bool
	Reason    string // for CanInline == false: why not
}

// A BoundsCheck is one IsInBounds / IsSliceInBounds op the SSA prove
// pass could not eliminate.
type BoundsCheck struct {
	Pos   Pos
	Slice bool // IsSliceInBounds (s[i:j]) rather than IsInBounds (s[i])
}

// Facts is the structured model of one build's diagnostic stream.
type Facts struct {
	Escapes   []EscapeSite
	NoEscapes []NoEscapeSite
	Inlines   []InlineDecision
	Bounds    []BoundsCheck

	// Unrecognized holds diagnostic-shaped lines that matched no known
	// pattern — the early-warning signal for message-format drift
	// across Go releases.
	Unrecognized []string

	escapeLines int // lines recognized as escape-analysis output
	inlineLines int // lines recognized as inlining output
	bceLines    int // lines recognized as check_bce output
}

// EscapesSeen reports whether the stream contained any recognizable
// escape-analysis output. When false, the escape gate must skip: the
// toolchain either suppressed -m or changed its wording.
func (f *Facts) EscapesSeen() bool { return f.escapeLines > 0 }

// hasEscape reports whether an escape site for the same value at the
// same position is already recorded.
func (f *Facts) hasEscape(pos Pos, what string) bool {
	for i := range f.Escapes {
		if f.Escapes[i].Pos == pos && f.Escapes[i].What == what {
			return true
		}
	}
	return false
}

// InlinesSeen reports whether inlining decisions were recognized.
func (f *Facts) InlinesSeen() bool { return f.inlineLines > 0 }

// BoundsSeen reports whether check_bce output was recognized. Unlike
// escapes and inlines, a small clean package can legitimately produce
// zero bounds checks, so callers should treat this as "gate on real
// data" only alongside BCELinesPossible heuristics; the repo-scale
// driver always sees some.
func (f *Facts) BoundsSeen() bool { return f.bceLines > 0 }

// InlineAt returns the inline decision whose position matches file
// and line (the position of the function's name token), if any.
func (f *Facts) InlineAt(file string, line int) (InlineDecision, bool) {
	for _, d := range f.Inlines {
		if d.Pos.Line == line && d.Pos.File == file {
			return d, true
		}
	}
	return InlineDecision{}, false
}

// InlineByName returns the inline decision for the compiler-style
// function name within file, if any — the fallback when the name
// token's line drifts from the reported position.
func (f *Facts) InlineByName(file, name string) (InlineDecision, bool) {
	for _, d := range f.Inlines {
		if d.Name == name && d.Pos.File == file {
			return d, true
		}
	}
	return InlineDecision{}, false
}

// ProvedStackAt reports whether a "does not escape" proof exists at
// file:line.
func (f *Facts) ProvedStackAt(file string, line int) bool {
	for _, s := range f.NoEscapes {
		if s.Pos.Line == line && s.Pos.File == file {
			return true
		}
	}
	return false
}

// ParseDiagnostics parses the combined stderr of a
// `go build -gcflags='-m=2 -d=ssa/check_bce'` run. Relative file
// paths are resolved against dir (the build's working directory) so
// positions compare equal to a token.FileSet loaded from absolute
// paths.
func ParseDiagnostics(output string, dir string) *Facts {
	f := &Facts{}
	var last *EscapeSite // open escape block collecting detail lines
	for _, line := range strings.Split(output, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue // package header
		}
		pos, msg, ok := splitPos(line, dir)
		if !ok {
			if strings.Contains(line, ".go:") {
				f.Unrecognized = append(f.Unrecognized, line)
			}
			continue
		}
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			// Indented flow-trace detail for the open escape block.
			if last != nil && last.Pos == pos {
				last.Details = append(last.Details, strings.TrimSpace(msg))
			}
			continue
		}
		last = nil
		switch {
		case msg == "Found IsInBounds":
			f.bceLines++
			f.Bounds = append(f.Bounds, BoundsCheck{Pos: pos})
		case msg == "Found IsSliceInBounds":
			f.bceLines++
			f.Bounds = append(f.Bounds, BoundsCheck{Pos: pos, Slice: true})
		case strings.HasSuffix(msg, " escapes to heap:"):
			f.escapeLines++
			f.Escapes = append(f.Escapes, EscapeSite{
				Pos: pos, What: strings.TrimSuffix(msg, " escapes to heap:"),
			})
			last = &f.Escapes[len(f.Escapes)-1]
		case strings.HasSuffix(msg, " escapes to heap"):
			f.escapeLines++
			what := strings.TrimSuffix(msg, " escapes to heap")
			// -m=2 prints each decision twice: once opening the flow
			// trace, once bare. Collapse the duplicate. The bare lines
			// of a function follow all of its traces, so the twin of a
			// function's first site is not the last site parsed.
			if f.hasEscape(pos, what) {
				continue
			}
			f.Escapes = append(f.Escapes, EscapeSite{Pos: pos, What: what})
		case strings.HasPrefix(msg, "moved to heap: "):
			f.escapeLines++
			what := strings.TrimPrefix(msg, "moved to heap: ")
			if f.hasEscape(pos, what) {
				continue
			}
			f.Escapes = append(f.Escapes, EscapeSite{Pos: pos, What: what, Moved: true})
			last = &f.Escapes[len(f.Escapes)-1]
		case strings.HasSuffix(msg, " does not escape"):
			f.escapeLines++
			f.NoEscapes = append(f.NoEscapes, NoEscapeSite{
				Pos: pos, What: strings.TrimSuffix(msg, " does not escape"),
			})
		case strings.HasPrefix(msg, "can inline "):
			f.inlineLines++
			name := strings.TrimPrefix(msg, "can inline ")
			if i := strings.Index(name, " with cost "); i >= 0 {
				name = name[:i]
			}
			f.Inlines = append(f.Inlines, InlineDecision{Pos: pos, Name: name, CanInline: true})
		case strings.HasPrefix(msg, "cannot inline "):
			f.inlineLines++
			rest := strings.TrimPrefix(msg, "cannot inline ")
			name, reason := rest, ""
			if i := strings.Index(rest, ": "); i >= 0 {
				name, reason = rest[:i], rest[i+2:]
			}
			f.Inlines = append(f.Inlines, InlineDecision{Pos: pos, Name: name, Reason: reason})
		case msg == "index bounds check elided":
			// A bce proof, not a violation.
			f.bceLines++
		case strings.HasPrefix(msg, "inlining call to "):
			f.inlineLines++
		case strings.HasPrefix(msg, "leaking param"),
			strings.Contains(msg, " leaks to "),
			strings.Contains(msg, "ignoring self-assignment"):
			// Recognized but not gated on: parameter leak summaries are
			// caller-side facts (the caller's value may be forced to
			// heap, but nothing allocates at this site), and
			// self-assignment notes are optimizer chatter.
			f.escapeLines++
		default:
			f.Unrecognized = append(f.Unrecognized, line)
		}
	}
	return f
}

// splitPos splits "path.go:line:col: msg", resolving path against
// dir. Lines without that shape (including <autogenerated> positions)
// report ok == false.
func splitPos(line, dir string) (Pos, string, bool) {
	i := strings.Index(line, ".go:")
	if i < 0 || strings.HasPrefix(line, "<autogenerated>") {
		return Pos{}, "", false
	}
	file := line[:i+3]
	rest := line[i+4:]
	j := strings.Index(rest, ":")
	if j < 0 {
		return Pos{}, "", false
	}
	lineNo, err := strconv.Atoi(rest[:j])
	if err != nil {
		return Pos{}, "", false
	}
	rest = rest[j+1:]
	k := strings.Index(rest, ":")
	if k < 0 {
		return Pos{}, "", false
	}
	colNo, err := strconv.Atoi(rest[:k])
	if err != nil {
		return Pos{}, "", false
	}
	msg := rest[k+1:]
	// One space separates position and message; keep deeper
	// indentation intact (it marks flow-trace detail lines).
	msg = strings.TrimPrefix(msg, " ")
	if !filepath.IsAbs(file) {
		file = filepath.Join(dir, file)
	}
	return Pos{File: file, Line: lineNo, Col: colNo}, msg, true
}
