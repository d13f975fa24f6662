package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// The product surface is what the product reads. TestExportedNamesHaveReaders
// fails on any exported declaration, method or struct field under internal/
// that no non-test file of the module reads; TestDocGoNamesResolve fails on
// any Go name, make target or command-line flag in DESIGN.md or README.md
// that the tree does not have. Both read the one load the rules read
// (load_test.go).

// unreadAllowed lists the exported names that have no non-test reader on
// purpose, each with its reason: the test packages that read it, the
// interface it is only called through, or the ROADMAP item that decides it.
// A key covers itself and every member below it ("solvers.maxHeap" is the
// type and its methods).
var unreadAllowed = map[string]string{
	"core.DistOptions.Sched":         "only benchmarks/e2e writes it; ROADMAP item 1(b) removes it",
	"core.DistOptions.Parallel":      "only benchmarks/e2e writes it; ROADMAP item 1(b) removes it with ds_mc",
	"dmem.LocalSolver.String":        "called by fmt through fmt.Stringer",
	"multigrid.GaussSeidel.Name":     "called through multigrid.Smoother",
	"multigrid.GaussSeidel.Smooth":   "called through multigrid.Smoother",
	"multigrid.DistSW.Name":          "called through multigrid.Smoother",
	"multigrid.DistSW.Smooth":        "called through multigrid.Smoother",
	"solvers.maxHeap":                "container/heap calls Len, Less, Swap, Push and Pop through heap.Interface",
	"solvers.StepRecord.Relaxations": "read by dmem's P = n oracle (scalar_oracle_test.go), solvers' tests and FuzzLayoutGate",
	"solvers.StepRecord.SolveMsgs":   "read by dmem's P = n oracle (scalar_oracle_test.go) and solvers' tests",
	"solvers.StepRecord.ResMsgs":     "read by dmem's P = n oracle (scalar_oracle_test.go) and solvers' tests",
	"problem.Biharmonic2D":           "a test matrix of problem's and solvers' tests",
	"sparse.CSR.Clone":               "read by sparse's and dmem's tests",
	"sparse.CSR.IsSymmetric":         "read by sparse's and problem's tests",
	"sparse.COO.AddSym":              "read by sparse's, color's, partition's and dmem's tests",
	"dmem.Setup.Factor":              "read by dmem's and bench's setup tests",
	"bench.ResetCaches":              "read by bench's tests and the root package's benchmarks",
}

func TestExportedNamesHaveReaders(t *testing.T) {
	pkgs := moduleNonTest(t)
	decls := map[string]token.Position{}
	read := map[string]bool{}
	for _, p := range pkgs {
		if rel, ok := internalRel(p.types); ok {
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
func exportedDecls(p *pkg, rel string, decls map[string]token.Position) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			decls[rel+"."+name] = p.fset.Position(obj.Pos())
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
				decls[rel+"."+name+"."+m.Name()] = p.fset.Position(m.Pos())
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					decls[rel+"."+name+"."+f.Name()] = p.fset.Position(f.Pos())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					decls[rel+"."+name+"."+m.Name()] = p.fset.Position(m.Pos())
				}
			}
		}
	}
}

// markReads records every module name the package's files read: a
// package-level name used anywhere but in its own declaration (a method's
// receiver is part of it), a field selected as x.F (a composite-literal key
// is a write, not a read) and a method selected as x.M.
func markReads(p *pkg, read map[string]bool) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self := map[types.Object]bool{p.info.Defs[d.Name]: true}
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
							self[p.info.Uses[id]] = true
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
						self[p.info.Defs[s.Name]] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							self[p.info.Defs[id]] = true
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
func markIn(p *pkg, root ast.Node, self map[types.Object]bool, read map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := p.info.Uses[n]
			if obj == nil || self[obj] || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
				return true
			}
			if rel, ok := internalRel(obj.Pkg()); ok {
				read[rel+"."+obj.Name()] = true
			}
		case *ast.SelectorExpr:
			if sel := p.info.Selections[n]; sel != nil {
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

// bareTestName is a backquoted Test, Benchmark or Fuzz function name with
// no package: `TestPartitionGolden`.
var bareTestName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*$`)

// typeMember is a backquoted Type.member with no package, optionally
// called — `Layout.Rank`, `Setup.nnz`, `rankState.relaxSweep()` — or a
// path of fields and a last member: `Layout.A.RowPtr`.
var typeMember = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(.*\))?$`)

// fileName is a span that names a file by its extension (`workspace.go`),
// which typeMember would read as a type's member.
var fileName = regexp.MustCompile(`\.(go|md|txt|json|ya?ml|mod|sh)$`)

// TestDocGoNamesResolve: every backquoted Go name in DESIGN.md and README.md
// whose first element names a package of the module resolves — a
// package-level name through the package scope, a member through
// types.LookupFieldOrMethod, and a Test, Benchmark or Fuzz function in the
// package's _test.go files. A bare Test, Benchmark or Fuzz name
// (`TestPartitionGolden`) resolves to a function of that name in any
// _test.go file of the module. A Type.member with no package
// (`Layout.Rank`, `rankState.relaxSweep`) resolves when Type is declared in
// exactly one package of the module: a field or method of it, unexported
// ones included, or a method declared on it in that package's _test.go
// files; a longer span (`Layout.A.RowPtr`) walks the types of its fields,
// each element but the last a field of the one before, and so does a
// package's type with two or more members (`dmem.Layout.A.RowPtr`). A span
// ending in a file extension (`workspace.go`) is a file name. A lower-case second element after a package is a benchmark metric
// name (`dmem.active_speedup`), not Go, and is skipped; so is everything
// inside fenced code blocks. A span that starts with `make
// <word>` names a Makefile target, and one that starts with a command's
// name (`dsouthwell -chaos 0.3`) uses only flags that command defines.
func TestDocGoNamesResolve(t *testing.T) {
	byName := map[string]*pkg{}
	typeOwners := map[string][]*pkg{} // every package-level type, by name
	for _, p := range moduleNonTest(t) {
		if p.types.Name() != "main" {
			byName[p.types.Name()] = p
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if _, ok := scope.Lookup(name).(*types.TypeName); ok {
				typeOwners[name] = append(typeOwners[name], p)
			}
		}
	}
	makefile, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	flags := cmdFlags(moduleNonTest(t))
	tests := moduleTestFuncs(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		src, err := os.ReadFile(filepath.Join(moduleRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docCodeSpans(string(src)) {
			if why := docCommand(span.text, targets, flags); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, span.line, span.text, why)
			}
			if bareTestName.MatchString(span.text) && !tests[span.text] {
				t.Errorf("%s:%d: `%s`: no such function in the module's _test.go files", doc, span.line, span.text)
			}
			if m := typeMember.FindStringSubmatch(span.text); m != nil && !fileName.MatchString(span.text) {
				elems := strings.Split(m[2][1:], ".")
				if p := byName[m[1]]; p != nil && len(elems) >= 3 && ast.IsExported(elems[0]) {
					why := "no such package-level type"
					if _, ok := p.types.Scope().Lookup(elems[0]).(*types.TypeName); ok {
						why = resolveTypeMember(p, elems[0], elems[1:])
					}
					if why != "" {
						t.Errorf("%s:%d: `%s`: %s", doc, span.line, span.text, why)
					}
					continue
				}
				if byName[m[1]] == nil && len(typeOwners[m[1]]) == 1 {
					if why := resolveTypeMember(typeOwners[m[1]][0], m[1], elems); why != "" {
						t.Errorf("%s:%d: `%s`: %s", doc, span.line, span.text, why)
					}
					continue
				}
			}
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

// makeTarget is a Makefile rule line; it captures the target.
var makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)

var (
	// makeVar is a Makefile variable assignment; it captures name and value.
	makeVar = regexp.MustCompile(`(?m)^([A-Za-z_][A-Za-z0-9_]*)\s*[?:]?=\s*(.*)$`)
	// testFlag is a go test selection flag and its pattern, quoted or not.
	testFlag = regexp.MustCompile(`-(run|bench|fuzz)\s+('[^']*'|"[^"]*"|\S+)`)
)

// TestMakefilePatternsMatch fails on a -run, -bench or -fuzz pattern in the
// Makefile with an alternative that matches no function of the module: go
// test runs nothing for it and still passes. The Makefile's own $(VAR)s
// are expanded and $$ read as $; the pattern's top-level element (up to a
// subtest '/') loses its ^( )$ anchors and is split at its top-level |, and
// each alternative, anchored as the pattern was, must match a Test, Fuzz or
// Example function (-run), a Benchmark (-bench) or a Fuzz function (-fuzz).
// The no-test pattern ^$ is exempt.
func TestMakefilePatternsMatch(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]string{}
	for _, m := range makeVar.FindAllStringSubmatch(string(src), -1) {
		vars[m[1]] = m[2]
	}
	funcs := moduleTestFuncs(t)
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, m := range testFlag.FindAllStringSubmatch(line, -1) {
			pat := strings.Trim(m[2], `'"`)
			for name, val := range vars {
				pat = strings.ReplaceAll(pat, "$("+name+")", val)
			}
			pat = strings.ReplaceAll(pat, "$$", "$")
			if pat == "^$" {
				continue
			}
			for _, alt := range patternAlternatives(pat) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: -%s %s: %v", i+1, m[1], m[2], err)
					continue
				}
				checked++
				matched := false
				for f := range funcs {
					matched = matched || re.MatchString(f) && slices.ContainsFunc(kinds[m[1]], func(k string) bool { return strings.HasPrefix(f, k) })
				}
				if !matched {
					t.Errorf("Makefile:%d: -%s %s: %q matches no %s function of the module", i+1, m[1], m[2], alt, strings.Join(kinds[m[1]], ", "))
				}
			}
		}
	}
	if checked < 10 {
		t.Errorf("only %d pattern alternatives found in the Makefile: the check is nearly vacuous", checked)
	}
}

// patternAlternatives splits a go test pattern's top-level element at its
// top-level |, each alternative anchored as the element was.
func patternAlternatives(pat string) []string {
	if i := strings.IndexByte(pat, '/'); i >= 0 {
		pat = pat[:i]
	}
	pre, post := "", ""
	if s, ok := strings.CutPrefix(pat, "^"); ok {
		pat, pre = s, "^"
	}
	if s, ok := strings.CutSuffix(pat, "$"); ok {
		pat, post = s, "$"
	}
	if strings.HasPrefix(pat, "(") && strings.HasSuffix(pat, ")") && closingParen(pat) == len(pat)-1 {
		pat = pat[1 : len(pat)-1]
	}
	var alts []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pre+"(?:"+pat[start:i]+")"+post)
				start = i + 1
			}
		}
	}
	return append(alts, pre+"(?:"+pat[start:]+")"+post)
}

// closingParen returns the index of the parenthesis that closes the one
// pat opens with, or −1.
func closingParen(pat string) int {
	depth := 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				return i
			}
		}
	}
	return -1
}

// cmdFlags returns the flags each command under cmd/ defines, by command
// name: the first constant string argument of every call into package flag.
func cmdFlags(pkgs []*pkg) map[string]map[string]bool {
	flags := map[string]map[string]bool{}
	for _, p := range pkgs {
		cmd, ok := strings.CutPrefix(p.path, modulePath+"/cmd/")
		if !ok {
			continue
		}
		flags[cmd] = map[string]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := p.info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				for _, a := range call.Args {
					if v := p.info.Types[a].Value; v != nil && v.Kind() == constant.String {
						flags[cmd][constant.StringVal(v)] = true
						break
					}
				}
				return true
			})
		}
	}
	return flags
}

// docCommand returns why a span that starts with `make <word>` or with a
// command's name names no Makefile target or a flag the command does not
// define, or "".
func docCommand(span string, targets map[string]bool, flags map[string]map[string]bool) string {
	fields := strings.Fields(span)
	if len(fields) >= 2 && fields[0] == "make" && !targets[fields[1]] {
		return "no such Makefile target"
	}
	if len(fields) == 0 || flags[fields[0]] == nil {
		return ""
	}
	for _, f := range fields[1:] {
		name, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
		if f[0] == '-' && name != "" && unicode.IsLetter(rune(name[0])) && !flags[fields[0]][name] {
			return fields[0] + " defines no flag -" + name
		}
	}
	return ""
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
func resolveDocName(p *pkg, name, member string) string {
	obj := p.types.Scope().Lookup(name)
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
	if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.types, member); m == nil {
		return "the type has no field or method " + member
	}
	return ""
}

// resolveTypeMember returns why the members do not resolve on package p's
// type typ, or "": each but the last a field, whose type the next is looked
// up on, and the last a field or method, unexported ones included, or — on
// typ itself — a method declared on it in p's _test.go files.
func resolveTypeMember(p *pkg, typ string, members []string) string {
	t, owner, path := p.types.Scope().Lookup(typ).Type(), p.types, p.types.Name()+"."+typ
	for i, member := range members {
		m, _, _ := types.LookupFieldOrMethod(t, true, owner, member)
		if m == nil && i == 0 && len(members) == 1 {
			for _, fd := range testDecls(p) {
				if fd.Recv != nil && fd.Name.Name == member && recvName(fd.Recv.List[0].Type) == typ {
					return ""
				}
			}
		}
		if m == nil {
			return path + " has no field or method " + member
		}
		if i == len(members)-1 {
			return ""
		}
		f, ok := m.(*types.Var)
		if !ok {
			return path + "." + member + " is a method, so it has no member " + members[i+1]
		}
		t, path = f.Type(), path+"."+member
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			owner = named.Obj().Pkg()
		}
	}
	return ""
}

// recvName returns the type name of a method's receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// testDecls returns the function and method declarations of the package's
// _test.go files.
func testDecls(p *pkg) []*ast.FuncDecl {
	dir := filepath.Dir(p.fset.Position(p.files[0].Pos()).Filename)
	names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	return declsIn(names)
}

// testFuncs returns the names of the functions declared in the package's
// _test.go files.
func testFuncs(p *pkg) map[string]bool {
	funcs := map[string]bool{}
	for _, fd := range testDecls(p) {
		if fd.Recv == nil {
			funcs[fd.Name.Name] = true
		}
	}
	return funcs
}

// moduleTestFuncs returns the names of the functions declared in every
// _test.go file of the module, testdata and hidden directories aside.
func moduleTestFuncs(t *testing.T) map[string]bool {
	var names []string
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != moduleRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			names = append(names, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcsIn(names)
}

// funcsIn returns the names of the functions, not methods, the Go files
// declare.
func funcsIn(files []string) map[string]bool {
	funcs := map[string]bool{}
	for _, fd := range declsIn(files) {
		if fd.Recv == nil {
			funcs[fd.Name.Name] = true
		}
	}
	return funcs
}

// declsIn returns the function and method declarations of the Go files; a
// file that does not parse contributes none.
func declsIn(files []string) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, fn := range files {
		f, err := parser.ParseFile(token.NewFileSet(), fn, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}
