// Package lint holds the module's static checks as tests over one
// type-checked load of its non-test files: the three determinism rules
// (rules_test.go) and the product-surface checks (surface_test.go). The
// package has no non-test files; `go test ./internal/lint` runs it all.
package lint

import (
	"bytes"
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
	"strings"
	"sync"
	"testing"
)

const (
	modulePath = "southwell"
	moduleRoot = "../.."
)

// pkg is one type-checked package of the module's non-test files.
type pkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// theLoad is the one load every test in the package reads: the module's
// packages, and the importer and file set they were checked with.
var theLoad struct {
	once sync.Once
	fset *token.FileSet
	imp  types.Importer
	pkgs []*pkg
	err  error
}

// moduleNonTest returns the module's non-test packages, loaded once per
// test binary.
func moduleNonTest(t *testing.T) []*pkg {
	t.Helper()
	theLoad.once.Do(load)
	if theLoad.err != nil {
		t.Fatal(theLoad.err)
	}
	return theLoad.pkgs
}

// listedPkg is the subset of `go list -json` output the load reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// load runs `go list -e -json -export -deps ./...` at the module root, then
// parses and type-checks every package of the module from source against
// the compiler's export data for its dependencies.
func load() {
	cmd := exec.Command("go", "list", "-e", "-json", "-export", "-deps", "./...")
	cmd.Dir = moduleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		theLoad.err = fmt.Errorf("go list: %v\n%s", err, stderr.String())
		return
	}
	var listed []listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			theLoad.err = fmt.Errorf("go list: decoding output: %v", err)
			return
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}
	fset := token.NewFileSet()
	theLoad.fset = fset
	theLoad.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			theLoad.err = fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
			return
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				theLoad.err = err
				return
			}
			files = append(files, f)
		}
		pk, err := check(p.ImportPath, files)
		if err != nil {
			theLoad.err = err
			return
		}
		theLoad.pkgs = append(theLoad.pkgs, pk)
	}
}

// check type-checks one package's parsed files with the load's importer.
func check(path string, files []*ast.File) (*pkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, err := (&types.Config{Importer: theLoad.imp}).Check(path, theLoad.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &pkg{path: path, fset: theLoad.fset, files: files, types: tp, info: info}, nil
}

// relFile is the file name relative to the module root.
func relFile(name string) string {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return name
	}
	return strings.TrimPrefix(name, root+string(filepath.Separator))
}

// relPos is pos as file:line:col, the file relative to the module root.
func relPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	p.Filename = relFile(p.Filename)
	return p.String()
}
