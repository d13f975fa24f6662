package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// Every table this repo reproduces assumes a run is a pure function of its
// seeds (DESIGN.md §6, §8). Three rules guard that, each a test over the
// one load: no map-ordered work and no wall clock or global math/rand under
// internal/, and no accidental exact float comparison anywhere. A
// deliberate exception goes in the rule's allow-list, keyed by file,
// enclosing function and expression (never by line) with its reason; an
// entry that matches nothing fails the test.

// A rule flags the nodes of a package's files that break it.
type rule struct {
	// internalOnly limits the rule to the packages under internal/;
	// otherwise it covers every non-test file of the module.
	internalOnly bool
	// breaks returns the offending expression and what is wrong with it,
	// or a nil expression if n is fine.
	breaks func(info *types.Info, n ast.Node) (ast.Expr, string)
	// allowed maps a finding's key to the reason it is deliberate.
	allowed map[string]string
}

// mapOrder: Go randomizes map iteration order per run, so under internal/
// no loop ranges over a map. Iterate a sorted key slice instead.
var mapOrder = rule{
	internalOnly: true,
	breaks: func(info *types.Info, n ast.Node) (ast.Expr, string) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || info.Types[rs.X].Type == nil {
			return nil, ""
		}
		if _, isMap := info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
			return nil, ""
		}
		return rs.X, "range over a map: its order is randomized per run; range over sorted keys"
	},
}

// allowedRand are the math/rand(/v2) functions that construct an explicitly
// seeded generator rather than touch global state.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// determinism: under internal/, nothing reads package time (simulated time
// comes from the rma cost model) and no package-level math/rand function
// other than a constructor runs (randomness flows through a seeded
// *rand.Rand). Commands and benchmarks/ may time themselves.
var determinism = rule{
	internalOnly: true,
	breaks: func(info *types.Info, n ast.Node) (ast.Expr, string) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return nil, ""
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return nil, ""
		}
		switch path := pn.Imported().Path(); path {
		case "time":
			return sel, "wall-clock package time under internal/; simulated time comes from the rma cost model"
		case "math/rand", "math/rand/v2":
			if _, isFunc := info.Uses[sel.Sel].(*types.Func); isFunc && !allowedRand[sel.Sel.Name] {
				return sel, "global " + path + " state; thread an explicitly seeded *rand.Rand instead"
			}
		}
		return nil, ""
	},
}

// floatCompare: no == or != with a float operand in a non-test file, except
// against a constant zero (the converged/unset sentinel) and the NaN test
// x != x.
var floatCompare = rule{
	breaks: func(info *types.Info, n ast.Node) (ast.Expr, string) {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return nil, ""
		}
		x, y := info.Types[be.X], info.Types[be.Y]
		if !isFloat(x.Type) && !isFloat(y.Type) || isZero(x) || isZero(y) ||
			types.ExprString(be.X) == types.ExprString(be.Y) {
			return nil, ""
		}
		return be, "exact float comparison; compare against a tolerance, or allow-list a bit-exact one with its reason"
	},
	allowed: map[string]string{
		"internal/solvers/southwell.go winsOver: ri != rj":                  "the Parallel Southwell tie-break: both rows evaluate the same pair, so it must agree bit for bit",
		"internal/dmem/common.go winsOver: np != nq":                        "the Parallel Southwell tie-break: both ranks evaluate the same pair, so it must agree bit for bit",
		"internal/dmem/parsw.go parallelSouthwell: rs.norm != rs.lastTold":  "Alg. 2's exact announce: any change to the norm must be broadcast, or stale Γ entries persist",
		"internal/multigrid/multigrid.go DistSW.Name: s.SweepFraction != 1": "0 and 1 are assigned literals, never computed",
	},
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isZero(tv types.TypeAndValue) bool {
	return tv.Value != nil && (tv.Value.Kind() == constant.Int || tv.Value.Kind() == constant.Float) && constant.Sign(tv.Value) == 0
}

// finding is one node a rule flagged.
type finding struct {
	pos  string // file:line:col
	key  string // "file func: expr", the allow-list key
	what string
}

// findings applies r to p's files.
func findings(r rule, p *pkg) []finding {
	if _, under := internalRel(p.types); r.internalOnly && !under {
		return nil
	}
	var out []finding
	for _, f := range p.files {
		file := relFile(p.fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			fn := funcName(d)
			ast.Inspect(d, func(n ast.Node) bool {
				if e, what := r.breaks(p.info, n); e != nil {
					out = append(out, finding{relPos(p.fset, e.Pos()), file + " " + fn + ": " + types.ExprString(e), what})
				}
				return true
			})
		}
	}
	return out
}

// funcName names the declaration: "f" or "T.m" for a function or method,
// "" for the other package-level declarations.
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}

// checkModule fails on every finding of r in the module that its
// allow-list does not name, and on every allow-list entry that names none.
func checkModule(t *testing.T, r rule) {
	used := map[string]bool{}
	for _, p := range moduleNonTest(t) {
		for _, f := range findings(r, p) {
			if _, ok := r.allowed[f.key]; ok {
				used[f.key] = true
				continue
			}
			t.Errorf("%s: %s\n\tallow-list key %q", f.pos, f.what, f.key)
		}
	}
	for k := range r.allowed {
		if !used[k] {
			t.Errorf("allow-list entry %q matches nothing: remove it", k)
		}
	}
}

func TestMapOrder(t *testing.T)     { checkModule(t, mapOrder) }
func TestDeterminism(t *testing.T)  { checkModule(t, determinism) }
func TestFloatCompare(t *testing.T) { checkModule(t, floatCompare) }

// A planted source is a small file that one rule must flag want times. Each
// rule is checked on a planted violation, which must be reported, and on the
// clean idiom next to it, which must not.
type planted struct {
	name string
	path string // the package path it is checked under
	src  string
	want int
}

const plantedInternal, plantedCmd = modulePath + "/internal/dmem", modulePath + "/cmd/planted"

// checkPlanted type-checks each source with the load's importer and counts
// r's findings in it.
func checkPlanted(t *testing.T, r rule, cases []planted) {
	moduleNonTest(t) // the importer
	for _, c := range cases {
		name := strings.ReplaceAll(c.name, " ", "_") + ".go"
		file, err := parser.ParseFile(theLoad.fset, name, "package p;"+c.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := check(c.path, []*ast.File{file})
		if err != nil {
			t.Fatal(err)
		}
		if got := findings(r, p); len(got) != c.want {
			t.Errorf("%s: %d findings, want %d: %v", c.name, len(got), c.want, got)
		}
	}
}

func TestMapOrderPlanted(t *testing.T) {
	checkPlanted(t, mapOrder, []planted{
		{"map range appends", plantedInternal,
			`func f(m map[int]float64) (s []float64) { for _, v := range m { s = append(s, v) }; return }`, 1},
		{"sorted key slice", plantedInternal,
			`func f(m map[int]float64, keys []int) (s []float64) { for _, k := range keys { s = append(s, m[k]) }; return }`, 0},
		{"map range outside internal", plantedCmd,
			`func f(m map[int]float64) (s []float64) { for _, v := range m { s = append(s, v) }; return }`, 0},
	})
}

func TestDeterminismPlanted(t *testing.T) {
	checkPlanted(t, determinism, []planted{
		{"time.Now", plantedInternal,
			`import "time"; func f() int64 { return time.Now().UnixNano() }`, 1},
		{"rand.Intn", plantedInternal,
			`import "math/rand"; func f() int { return rand.Intn(4) }`, 1},
		{"seeded rand.Rand", plantedInternal,
			`import "math/rand"; func f() int { var r *rand.Rand = rand.New(rand.NewSource(1)); return r.Intn(4) }`, 0},
		{"time.Now outside internal", plantedCmd,
			`import "time"; func f() int64 { return time.Now().UnixNano() }`, 0},
	})
}

func TestFloatComparePlanted(t *testing.T) {
	checkPlanted(t, floatCompare, []planted{
		{"bare float ==", plantedCmd,
			`func f(x, y float64) bool { return x == y }`, 1},
		{"zero and NaN tests", plantedCmd,
			`func f(x float64) bool { return x == 0 || x != x }`, 0},
	})
}
