package framework

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
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ignores map[ignoreKey]bool
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -json -export -deps <patterns>` in dir and
// decodes the JSON stream: the pattern matches themselves (DepOnly false)
// plus their full dependency closure with compiler export-data files.
func goList(dir string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportTable maps import paths to compiler export-data files, as produced
// by `go list -export`. It backs the type-checker's importer, so analyzed
// sources resolve their dependencies exactly as the compiler does — no
// source re-type-checking of the dependency closure.
type ExportTable map[string]string

// LoadExportTable builds the export table for the dependency closure of the
// given package patterns (resolved relative to dir).
func LoadExportTable(dir string, patterns ...string) (ExportTable, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return exportTable(listed), nil
}

func exportTable(listed []*listedPkg) ExportTable {
	t := make(ExportTable, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			t[p.ImportPath] = p.Export
		}
	}
	return t
}

// NewImporter returns a types.Importer that reads compiler export data
// through the table. The importer caches, so share one per load.
func (t ExportTable) NewImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := t[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// newInfo allocates the types.Info maps analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// parseFiles parses the named files (joined to dir) with comments and
// returns them with their source bytes by file name.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	var files []*ast.File
	srcs := make(map[string][]byte, len(names))
	for _, name := range names {
		fn := filepath.Join(dir, name)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		srcs[fn] = src
	}
	return files, srcs, nil
}

// ParseFixture parses the named files in dir with comments, for the
// analysistest harness.
func ParseFixture(fset *token.FileSet, dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	return parseFiles(fset, dir, names)
}

// CheckFiles type-checks one package's parsed files with the given importer
// and wraps the result as an analysis-ready Package. srcs (file name to
// source bytes) is read once, to place //dslint:ignore directives.
func CheckFiles(path string, fset *token.FileSet, files []*ast.File, srcs map[string][]byte, imp types.Importer) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}
	pkg.scanIgnores(srcs)
	return pkg, nil
}

// Load lists the patterns (relative to dir), type-checks every matched
// non-test package from source against export data of its dependencies, and
// returns them ready for analysis. Test files are not analyzed: dslint's
// invariants concern the production simulator and solver code, and the
// fixture suites intentionally hold violations.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportTable(listed).NewImporter(fset)
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files, srcs, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", p.ImportPath, err)
		}
		pkg, err := CheckFiles(p.ImportPath, fset, files, srcs, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
