package polyvet

import (
	"go/ast"
	"go/types"
)

// DetMap flags every `range` over a map in sim-visible packages. Go
// randomizes map iteration order per run, so any order that leaks
// into simulation state, RNG draw order, or output breaks the
// byte-identical reproducibility bar every sweep and trace clears —
// exactly the tcpsim bug where feeding an RTT EWMA in map order made
// DCTCP figures vary run to run.
//
// There is no proof of order-insensitivity: iterate a sorted key
// slice (slices.Sorted(maps.Keys(m)) is not a range over the map), or
// annotate the loop //polyvet:orderfree <reason> so a reader sees why
// its order cannot matter.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "flag range-over-map in sim-visible packages unless annotated //polyvet:orderfree",
	Run:  runDetMap,
}

func runDetMap(pass *Pass) error {
	if !simVisible(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if m := rangedMap(pass.TypesInfo, rs.X); m != nil {
					pass.Reportf(rs.Pos(),
						"range over map %s: iteration order is nondeterministic; iterate a sorted key slice, or annotate //polyvet:orderfree <reason>",
						types.TypeString(m, types.RelativeTo(pass.Pkg)))
				}
			}
			return true
		})
	}
	return nil
}

// rangedMap returns the type of the map a range statement iterates,
// or nil. The map is the ranged expression itself or the argument of
// maps.Keys, maps.Values or maps.All: the iterator forms are exactly
// as order-randomized as ranging the map directly, and without this
// check they would be a silent bypass.
func rangedMap(info *types.Info, x ast.Expr) types.Type {
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok && len(call.Args) == 1 {
		f := funcFor(info, call)
		if isPkgFunc(f, "maps", "Keys") || isPkgFunc(f, "maps", "Values") || isPkgFunc(f, "maps", "All") {
			x = call.Args[0]
		}
	}
	if t := info.TypeOf(x); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return t
		}
	}
	return nil
}
