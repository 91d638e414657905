package polyvet

import (
	"go/ast"
	"go/token"
	"strings"
)

// A directive is one parsed //polyvet: comment. Five forms exist:
//
//	//polyvet:orderfree <reason>   — suppresses a detmap finding on the
//	                                 next (or same) line
//	//polyvet:allow <analyzer> <reason> — suppresses that analyzer's (or
//	                                 compiler gate's) finding on the
//	                                 next (or same) line
//	//polyvet:noalloc <reason>     — marks the following function as
//	                                 heap-allocation-free (escape gate,
//	                                 compiler -m output)
//	//polyvet:nobce <reason>       — marks the following function's
//	                                 loops as bounds-check-free (bce
//	                                 gate, compiler check_bce output)
//	//polyvet:inline <reason>      — marks the following function as
//	                                 one the compiler must keep
//	                                 inlinable (inline gate, -m output)
//
// A reason is mandatory: an escape hatch with no justification is a
// finding of its own. Suppressions must be adjacent (same line or the
// line directly above) to the code they excuse, and a suppression
// that matches no finding is reported as stale — annotations cannot
// outlive the code they excused.
type directive struct {
	pos  token.Position
	verb string // "orderfree", "allow", "noalloc", "nobce", "inline"
	// arg is the analyzer name for "allow", empty otherwise.
	arg    string
	reason string
	used   bool
}

// CompilerGates names the compiler-ground-truth gates
// (internal/polyvet/deep). They are valid //polyvet:allow targets and
// own the function-marking verbs: escape owns noalloc, bce owns nobce,
// inline owns inline.
var CompilerGates = []string{"escape", "bce", "inline"}

func knownGate(name string) bool {
	for _, a := range Suite() {
		if a.Name == name {
			return true
		}
	}
	for _, g := range CompilerGates {
		if g == name {
			return true
		}
	}
	return false
}

// Directives holds one package's parsed //polyvet: comments plus the
// malformed ones (reported as diagnostics by RunPackage via unused).
type Directives struct {
	byFile    map[string][]*directive
	malformed []Diagnostic
}

const directivePrefix = "//polyvet:"

func parseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byFile: map[string][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d.add(fset.Position(c.Slash), strings.TrimPrefix(c.Text, directivePrefix))
			}
		}
	}
	return d
}

func (d *Directives) add(pos token.Position, text string) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "polyvet",
			Message: "empty //polyvet: directive",
		})
		return
	}
	dir := &directive{pos: pos, verb: fields[0]}
	rest := fields[1:]
	switch dir.verb {
	case "orderfree", "noalloc", "nobce", "inline":
	case "allow":
		if len(rest) == 0 {
			d.malformed = append(d.malformed, Diagnostic{
				Pos: pos, Analyzer: "polyvet",
				Message: "//polyvet:allow needs an analyzer name and a reason",
			})
			return
		}
		dir.arg, rest = rest[0], rest[1:]
		if !knownGate(dir.arg) {
			d.malformed = append(d.malformed, Diagnostic{
				Pos: pos, Analyzer: "polyvet",
				Message: "//polyvet:allow names unknown analyzer " + dir.arg,
			})
			return
		}
	default:
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "polyvet",
			Message: "unknown //polyvet:" + dir.verb + " directive (want orderfree, allow, noalloc, nobce or inline)",
		})
		return
	}
	dir.reason = strings.Join(rest, " ")
	if dir.reason == "" {
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "polyvet",
			Message: "//polyvet:" + dir.verb + " needs a reason",
		})
		return
	}
	d.byFile[pos.Filename] = append(d.byFile[pos.Filename], dir)
}

// suppress reports whether an adjacent directive excuses d, marking
// the directive used.
func (ds *Directives) suppress(d Diagnostic) bool {
	for _, dir := range ds.byFile[d.Pos.Filename] {
		if dir.pos.Line != d.Pos.Line && dir.pos.Line != d.Pos.Line-1 {
			continue
		}
		if (dir.verb == "orderfree" && d.Analyzer == DetMap.Name) ||
			(dir.verb == "allow" && dir.arg == d.Analyzer) {
			dir.used = true
			return true
		}
	}
	return false
}

// markedFor reports whether fn carries a //polyvet:<verb> directive,
// either inside its doc comment or on the line directly above its
// declaration, marking the directive used. It returns the directive's
// reason when found.
func (ds *Directives) markedFor(fset *token.FileSet, fn *ast.FuncDecl, verb string) (string, bool) {
	pos := fset.Position(fn.Pos())
	for _, dir := range ds.byFile[pos.Filename] {
		if dir.verb != verb {
			continue
		}
		if dir.pos.Line == pos.Line-1 ||
			(fn.Doc != nil && dir.pos.Offset >= fset.Position(fn.Doc.Pos()).Offset &&
				dir.pos.Offset < fset.Position(fn.Doc.End()).Offset) {
			dir.used = true
			return dir.reason, true
		}
	}
	return "", false
}

// A FuncMark is one function annotated with a //polyvet:<verb>
// function directive, with everything the compiler gates need to match
// it against compiler diagnostics: the compiler-style name, the
// position of the name token (where inline decisions are reported) and
// the file span of the declaration (where escape and bounds-check
// sites land).
type FuncMark struct {
	Decl    *ast.FuncDecl
	Name    string // compiler-style: Name, T.Name or (*T).Name
	NamePos token.Position
	Start   token.Position
	End     token.Position
	Reason  string
}

// FuncMarks returns the functions in pkg annotated //polyvet:<verb>
// (test files excluded), plus diagnostics for <verb> directives that
// are attached to no function declaration — a function directive with
// nothing to guard is stale by definition.
func FuncMarks(pkg *Package, verb string) ([]FuncMark, []Diagnostic) {
	files := withoutTestFiles(pkg.Fset, pkg.Files)
	dirs := parseDirectives(pkg.Fset, files)
	var marks []FuncMark
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			reason, ok := dirs.markedFor(pkg.Fset, fd, verb)
			if !ok {
				continue
			}
			marks = append(marks, FuncMark{
				Decl:    fd,
				Name:    compilerFuncName(fd),
				NamePos: pkg.Fset.Position(fd.Name.Pos()),
				Start:   pkg.Fset.Position(fd.Pos()),
				End:     pkg.Fset.Position(fd.End()),
				Reason:  reason,
			})
		}
	}
	var stale []Diagnostic
	for _, fileDirs := range dirs.byFile {
		for _, dir := range fileDirs {
			if dir.verb != verb || dir.used {
				continue
			}
			stale = append(stale, Diagnostic{
				Pos: dir.pos, Analyzer: "polyvet",
				Message: "//polyvet:" + verb + " directive not attached to a function declaration",
			})
		}
	}
	return marks, stale
}

// ApplyAllows filters diags through the package's //polyvet:allow
// directives for the given gate names: an adjacent allow drops the
// finding, and an allow targeting one of the gates that suppressed
// nothing is reported stale. This is RunPackage's suppression
// contract, exported for the compiler gates, which run outside the
// analyzer suite.
func ApplyAllows(pkg *Package, gates []string, diags []Diagnostic) []Diagnostic {
	files := withoutTestFiles(pkg.Fset, pkg.Files)
	dirs := parseDirectives(pkg.Fset, files)
	inRun := map[string]bool{}
	for _, g := range gates {
		inRun[g] = true
	}
	kept := diags[:0:0]
	for _, d := range diags {
		if inRun[d.Analyzer] && dirs.suppress(d) {
			continue
		}
		kept = append(kept, d)
	}
	for _, fileDirs := range dirs.byFile {
		for _, dir := range fileDirs {
			if dir.verb != "allow" || dir.used || !inRun[dir.arg] {
				continue
			}
			kept = append(kept, Diagnostic{
				Pos: dir.pos, Analyzer: "polyvet",
				Message: "stale //polyvet:allow " + dir.arg + " directive: no " + dir.arg + " finding here — remove it",
			})
		}
	}
	return kept
}

// compilerFuncName renders fn's name the way gc's -m diagnostics do:
// plain functions as Name, methods as T.Name or (*T).Name.
func compilerFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return "(*" + recvTypeName(star.X) + ")." + fd.Name.Name
	}
	return recvTypeName(t) + "." + fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

// unused returns diagnostics for malformed directives and for
// suppressions that matched nothing this run. Only directives owned
// by an analyzer in the run are checked, so a fixture test running one
// analyzer never flags another's annotations. The function verbs
// belong to the compiler gates, which report their own stale marks.
func (ds *Directives) unused(analyzers []*Analyzer) []Diagnostic {
	inRun := map[string]bool{}
	for _, a := range analyzers {
		inRun[a.Name] = true
	}
	out := append([]Diagnostic(nil), ds.malformed...)
	for _, dirs := range ds.byFile {
		for _, dir := range dirs {
			if dir.used {
				continue
			}
			owner := dir.arg // allow's target; "" for the function verbs
			if dir.verb == "orderfree" {
				owner = DetMap.Name
			}
			if !inRun[owner] {
				continue
			}
			out = append(out, Diagnostic{
				Pos: dir.pos, Analyzer: "polyvet",
				Message: "stale //polyvet:" + dir.verb + " directive: no " + owner + " finding here — remove it",
			})
		}
	}
	return out
}
