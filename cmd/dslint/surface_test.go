package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"southwell/internal/analysis/framework"
)

// The product surface is what the product reads. TestExportedNamesHaveReaders
// fails on any exported declaration, method or struct field under internal/
// that no non-test file of the module reads; TestDocGoNamesResolve fails on
// any Go name in DESIGN.md or README.md that the tree does not have. Both
// share one type-checked load of the module's non-test files, the same load
// as TestModuleLintClean.

const modulePath = "southwell"

var (
	loadOnce   sync.Once
	loadedPkgs []*framework.Package
	loadErr    error
)

func moduleNonTest(t *testing.T) []*framework.Package {
	t.Helper()
	loadOnce.Do(func() { loadedPkgs, loadErr = framework.Load("../..", "./...") })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadedPkgs
}

// unreadAllowed lists the exported names that have no non-test reader on
// purpose, each with its reason: the test packages that read it, the
// interface it is only called through, or the ROADMAP item that decides it.
// A key covers itself and every member below it ("krylov" is the whole
// package, "solvers.maxHeap" the type and its methods).
var unreadAllowed = map[string]string{
	"analysis/analysistest":                "the analyzer fixture harness: only the analyzers' tests import it",
	"krylov":                               "ROADMAP item 5 decides the package: earn a table or be deleted",
	"core.DistOptions.Sched":               "only benchmarks/e2e writes it; ROADMAP item 1(b) removes it",
	"dmem.payload.CloneMessage":            "called through rma.Cloner; ROADMAP item 2 removes it",
	"dmem.LocalSolver.String":              "called by fmt through fmt.Stringer",
	"analysis/framework.Diagnostic.String": "called by fmt through fmt.Stringer",
	"multigrid.GaussSeidel.Name":           "called through multigrid.Smoother",
	"multigrid.GaussSeidel.Smooth":         "called through multigrid.Smoother",
	"multigrid.DistSW.Name":                "called through multigrid.Smoother",
	"multigrid.DistSW.Smooth":              "called through multigrid.Smoother",
	"solvers.maxHeap":                      "container/heap calls Len, Less, Swap, Push and Pop through heap.Interface",
	"solvers.StepRecord.SolveMsgs":         "read by dmem's P = n oracle (scalar_oracle_test.go) and solvers' tests",
	"solvers.StepRecord.ResMsgs":           "read by dmem's P = n oracle (scalar_oracle_test.go) and solvers' tests",
	"problem.Aniso2D":                      "a test matrix of problem's, dmem's and spdirect's tests",
	"problem.Biharmonic2D":                 "a test matrix of problem's and solvers' tests",
	"sparse.CSR.Clone":                     "read by sparse's and dmem's tests",
	"sparse.CSR.IsSymmetric":               "read by sparse's and problem's tests",
	"sparse.COO.AddSym":                    "read by sparse's, color's and partition's tests",
	"dmem.Setup.Factor":                    "read by dmem's and bench's setup tests",
	"bench.ResetCaches":                    "read by bench's tests and the root package's benchmarks",
}

func TestExportedNamesHaveReaders(t *testing.T) {
	pkgs := moduleNonTest(t)
	decls := map[string]token.Position{}
	read := map[string]bool{}
	for _, p := range pkgs {
		if rel, ok := internalRel(p.Types); ok {
			exportedDecls(p, rel, decls)
		}
		markReads(p, read)
	}
	var unread []string
	for k := range decls {
		if !read[k] && allowedUnread(k) == "" {
			unread = append(unread, k)
		}
	}
	sort.Strings(unread)
	for _, k := range unread {
		t.Errorf("%s: %s has no non-test reader: delete it, move it into a _test.go file, or add it to unreadAllowed with a reason", decls[k], k)
	}
	for k := range unreadAllowed {
		if !anyUnread(decls, read, k) {
			t.Errorf("unreadAllowed entry %q covers no unread name: remove it", k)
		}
	}
	t.Logf("%d exported names under internal/", len(decls))
}

// internalRel returns the package's path below the module's internal/.
func internalRel(p *types.Package) (string, bool) {
	return strings.CutPrefix(p.Path(), modulePath+"/internal/")
}

// allowedUnread returns the reason of the allow-list entry covering key, or
// "" if none does.
func allowedUnread(key string) string {
	for k := key; ; {
		if why, ok := unreadAllowed[k]; ok {
			return why
		}
		i := strings.LastIndexByte(k, '.')
		if i < 0 {
			return ""
		}
		k = k[:i]
	}
}

// anyUnread reports whether the allow-list key covers an unread name.
func anyUnread(decls map[string]token.Position, read map[string]bool, key string) bool {
	for k := range decls {
		if (k == key || strings.HasPrefix(k, key+".")) && !read[k] {
			return true
		}
	}
	return false
}

// exportedDecls adds the package's exported package-level names, the
// exported methods of its named types and the exported fields of its named
// struct types, keyed "rel.Name" and "rel.Type.Member".
func exportedDecls(p *framework.Package, rel string, decls map[string]token.Position) {
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			decls[rel+"."+name] = p.Fset.Position(obj.Pos())
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				decls[rel+"."+name+"."+m.Name()] = p.Fset.Position(m.Pos())
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					decls[rel+"."+name+"."+f.Name()] = p.Fset.Position(f.Pos())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					decls[rel+"."+name+"."+m.Name()] = p.Fset.Position(m.Pos())
				}
			}
		}
	}
}

// markReads records every module name the package's files read: a
// package-level name used anywhere but in its own declaration (a method's
// receiver is part of it), a field selected as x.F (a composite-literal key
// is a write, not a read) and a method selected as x.M.
func markReads(p *framework.Package, read map[string]bool) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self := map[types.Object]bool{p.Info.Defs[d.Name]: true}
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
							self[p.Info.Uses[id]] = true
						}
						return true
					})
				}
				markIn(p, d, self, read)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					self := map[types.Object]bool{}
					switch s := s.(type) {
					case *ast.TypeSpec:
						self[p.Info.Defs[s.Name]] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							self[p.Info.Defs[id]] = true
						}
					}
					markIn(p, s, self, read)
				}
			}
		}
	}
}

// markIn marks what the identifiers and selectors under root read, except
// the objects root declares.
func markIn(p *framework.Package, root ast.Node, self map[types.Object]bool, read map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := p.Info.Uses[n]
			if obj == nil || self[obj] || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
				return true
			}
			if rel, ok := internalRel(obj.Pkg()); ok {
				read[rel+"."+obj.Name()] = true
			}
		case *ast.SelectorExpr:
			if sel := p.Info.Selections[n]; sel != nil {
				markSelection(sel, read)
			}
		}
		return true
	})
}

// markSelection marks the field or method a selector reads, and every
// embedded field it passes through on the way.
func markSelection(sel *types.Selection, read map[string]bool) {
	idx := sel.Index()
	typ := sel.Recv()
	last := len(idx)
	if sel.Kind() != types.FieldVal {
		last--
	}
	for _, i := range idx[:last] {
		st, ok := deref(typ).Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		markMember(namedOf(typ), f.Name(), read)
		typ = f.Type()
	}
	if sel.Kind() != types.FieldVal {
		fn := sel.Obj().(*types.Func)
		markMember(namedOf(fn.Type().(*types.Signature).Recv().Type()), fn.Name(), read)
	}
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the generic origin of the named type t or *t points to.
func namedOf(t types.Type) *types.Named {
	if n, ok := types.Unalias(deref(t)).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// markMember marks member of a named type of a package under internal/.
func markMember(named *types.Named, member string, read map[string]bool) {
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	if rel, ok := internalRel(named.Obj().Pkg()); ok {
		read[rel+"."+named.Obj().Name()+"."+member] = true
	}
}

// docGoName is a backquoted pkg.Name or pkg.Type.Member, optionally
// called: `dmem.NewLayout`, `sparse.CSR.RowPtr`, `rma.DelayPlan(1, 0.25, 3)`.
var docGoName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(?:\(.*\))?$`)

// testFunc names a Test, Benchmark or Fuzz function.
var testFunc = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z_]`)

// TestDocGoNamesResolve: every backquoted Go name in DESIGN.md and README.md
// whose first element names a package of the module resolves — a
// package-level name through the package scope, a member through
// types.LookupFieldOrMethod, and a Test, Benchmark or Fuzz function in the
// package's _test.go files. A lower-case second element is a benchmark
// metric name (`dmem.active_speedup`), not Go, and is skipped; so is
// everything inside fenced code blocks.
func TestDocGoNamesResolve(t *testing.T) {
	byName := map[string]*framework.Package{}
	for _, p := range moduleNonTest(t) {
		if p.Types.Name() != "main" {
			byName[p.Types.Name()] = p
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docCodeSpans(string(src)) {
			m := docGoName.FindStringSubmatch(span.text)
			if m == nil || byName[m[1]] == nil || !ast.IsExported(m[2]) {
				continue
			}
			if why := resolveDocName(byName[m[1]], m[2], m[3]); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, span.line, span.text, why)
			}
		}
	}
}

type codeSpan struct {
	text string
	line int
}

// docCodeSpans returns the markdown's inline code spans outside fenced
// blocks, with the line each starts on. A span may wrap onto the next line
// but, as in markdown, not past a blank one.
func docCodeSpans(md string) []codeSpan {
	var spans []codeSpan
	var para []string // the current paragraph's lines
	start, fenced := 0, false
	flush := func() {
		parts := strings.Split(strings.Join(para, "\n"), "`")
		line := start
		for k, part := range parts {
			if k%2 == 1 && k < len(parts)-1 {
				spans = append(spans, codeSpan{strings.ReplaceAll(part, "\n", " "), line})
			}
			line += strings.Count(part, "\n")
		}
		para = para[:0]
	}
	for i, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			flush()
			continue
		}
		if fenced || strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		if len(para) == 0 {
			start = i + 1
		}
		para = append(para, line)
	}
	flush()
	return spans
}

// resolveDocName returns why pkg.name(.member) does not resolve, or "".
func resolveDocName(p *framework.Package, name, member string) string {
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		if testFunc.MatchString(name) && member == "" {
			if testFuncs(p)[name] {
				return ""
			}
			return "no such function in the package's _test.go files"
		}
		return "no such package-level name"
	}
	if member == "" {
		return ""
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return "not a type, so it has no member " + member
	}
	if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.Types, member); m == nil {
		return "the type has no field or method " + member
	}
	return ""
}

// testFuncs returns the names of the functions declared in the package's
// _test.go files.
func testFuncs(p *framework.Package) map[string]bool {
	dir := filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
	names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	funcs := map[string]bool{}
	for _, fn := range names {
		f, err := parser.ParseFile(token.NewFileSet(), fn, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
	}
	return funcs
}
