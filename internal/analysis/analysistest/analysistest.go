// Package analysistest runs framework analyzers over small fixture
// packages and checks their diagnostics against // want comments, playing
// the role of golang.org/x/tools/go/analysis/analysistest for dslint's
// offline, stdlib-only analysis framework.
//
// Fixtures live under <testdata>/src/<importpath>/*.go, GOPATH-style. A
// fixture file marks each line that must produce a diagnostic with a
// trailing comment of the form
//
//	// want "regexp"
//	// want "first" "second"        (two diagnostics on one line)
//
// Every diagnostic must be matched by a want and every want by a
// diagnostic; mismatches fail the test with positions. Fixture packages may
// import sibling fixtures (resolved under testdata/src) and the standard
// library (resolved through compiler export data, like the main loader).
package analysistest

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"southwell/internal/analysis/framework"
)

// TestData returns the absolute path of the calling package's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package and checks a's diagnostics against the
// fixture's want comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	l := &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*framework.Package{},
	}
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := framework.Run(a, pkg)
		if err != nil {
			t.Fatalf("running %s on fixture %s: %v", a.Name, path, err)
		}
		check(t, pkg, diags)
	}
}

// loader type-checks fixture packages, memoized, resolving fixture imports
// under testdata/src and everything else through export data.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*framework.Package
	std      types.Importer
}

func (l *loader) srcDir(path string) string {
	return filepath.Join(l.testdata, "src", filepath.FromSlash(path))
}

func (l *loader) isFixture(path string) bool {
	names, err := goFileNames(l.srcDir(path))
	return err == nil && len(names) > 0
}

func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (l *loader) load(path string) (*framework.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	names, err := goFileNames(l.srcDir(path))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, l.srcDir(path))
	}
	files, srcs, err := framework.ParseFixture(l.fset, l.srcDir(path), names)
	if err != nil {
		return nil, err
	}
	// Resolve fixture imports first (recursively), then type-check with a
	// combined importer so both fixture and stdlib imports resolve.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.isFixture(ip) {
				if _, err := l.load(ip); err != nil {
					return nil, err
				}
			}
		}
	}
	if l.std == nil {
		if l.std, err = l.stdImporter(); err != nil {
			return nil, err
		}
	}
	pkg, err := framework.CheckFiles(path, l.fset, files, srcs, importerFunc(func(ip string) (*types.Package, error) {
		if dep, ok := l.pkgs[ip]; ok {
			return dep.Types, nil
		}
		return l.std.Import(ip)
	}))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// stdImporter builds the export-data importer over the stdlib closure of
// every import mentioned anywhere under testdata/src (one `go list` run
// covers all fixtures of the suite).
func (l *loader) stdImporter() (types.Importer, error) {
	std := map[string]bool{}
	root := filepath.Join(l.testdata, "src")
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, ip := range importPaths(string(src)) {
			if !l.isFixture(ip) {
				std[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	args := make([]string, 0, len(std))
	for ip := range std {
		args = append(args, ip)
	}
	sort.Strings(args)
	table := framework.ExportTable{}
	if len(args) > 0 {
		if table, err = framework.LoadExportTable(l.testdata, args...); err != nil {
			return nil, err
		}
	}
	return table.NewImporter(l.fset), nil
}

// importPaths extracts import paths from source text without a full parse
// (fixtures are tiny; a real parse happens at load time).
var importRE = regexp.MustCompile(`(?m)^\s*(?:import\s+)?(?:[\w.]+\s+)?"([^"]+)"`)

func importPaths(src string) []string {
	var out []string
	for _, m := range importRE.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1])
	}
	return out
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var strRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants extracts want expectations from a package's comments.
func collectWants(t *testing.T, pkg *framework.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lits := strRE.FindAllString(m[1], -1)
				if len(lits) == 0 {
					t.Errorf("%s:%d: malformed want comment: %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, lit := range lits {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// check matches diagnostics against wants 1:1 by file and line.
func check(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
diag:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue diag
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
