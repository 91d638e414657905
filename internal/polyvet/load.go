package polyvet

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// The module loader. `polyvet ./...` and the in-repo enforcement test
// load packages with nothing but the go tool: `go list -export -deps`
// yields every package's file list plus compiled export data for its
// dependencies, and the stdlib gc importer consumes that export data
// for type checking. This is the same shape golang.org/x/tools'
// go/packages driver uses, minus the dependency.

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (in dir; "" = cwd), type
// checks the non-dependency ones from source against their deps'
// export data, and returns them ready for RunPackage.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Export,ImportMap,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("polyvet: go list: %w", err)
	}

	var pkgs []*listPackage
	exports := map[string]string{} // import path -> export data file
	resolve := map[string]string{} // vendor/test-variant remapping
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("polyvet: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("polyvet: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			resolve[from] = to
		}
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := resolve[path]; ok {
			path = mapped
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out2 []*Package
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out2 = append(out2, pkg)
	}
	return out2, nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("polyvet: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("polyvet: typecheck %s: %w", path, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
