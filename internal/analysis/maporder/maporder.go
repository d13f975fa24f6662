// Package maporder flags `for range` loops over maps in the deterministic
// packages (lintutil.IsDeterministic) whose body is order-sensitive.
//
// Go randomizes map iteration order per run, so a map-ordered loop that
// appends to a shared slice, accumulates floating point (non-associative),
// sends on a channel, or stages messages through World.Put makes the
// simulator's output depend on the runtime's hash seed — breaking the
// bit-reproducibility the engine-equivalence tests assert and the
// neighbor/ghost index layouts dmem's exchange plans rely on (DESIGN.md
// §6, §8). The one legal map loop is the collect-then-sort idiom: a
// single-statement body appending the keys (and/or values) to a slice that
// a later statement in the same block passes to sort or slices.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"southwell/internal/analysis/framework"
	"southwell/internal/analysis/lintutil"
)

// Analyzer is the maporder check.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive iteration over maps in deterministic packages " +
		"(appends, float accumulation, sends) unless keys are collected and sorted",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !lintutil.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			reason := orderSensitive(pass, rs)
			if reason == "" {
				return true
			}
			if isCollectThenSort(pass, f, rs) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"order-sensitive iteration over map %s (%s); map order is randomized per run — collect and sort the keys first",
				types.ExprString(rs.X), reason)
			return true
		})
	}
	return nil
}

// orderSensitive returns a description of the first operation in the loop
// body whose result depends on iteration order, or "" if none.
func orderSensitive(pass *framework.Pass, rs *ast.RangeStmt) string {
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			reason = "channel send"
		case *ast.CallExpr:
			if lintutil.WorldMethod(pass.TypesInfo, s, "Put") != nil {
				reason = "message staged through World.Put"
			}
		case *ast.AssignStmt:
			reason = assignSensitive(pass, rs, s)
		}
		return reason == ""
	})
	return reason
}

// assignSensitive classifies one assignment inside the loop body: appends
// to and float accumulation into storage that outlives the iteration.
func assignSensitive(pass *framework.Pass, rs *ast.RangeStmt, s *ast.AssignStmt) string {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := s.Lhs[0]
		if t := pass.TypesInfo.Types[lhs].Type; t != nil && lintutil.IsFloat(t) && !declaredInside(pass, rs, lhs) {
			return "floating-point accumulation into " + types.ExprString(lhs)
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range s.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(s.Lhs) {
				continue
			}
			if !declaredInside(pass, rs, s.Lhs[i]) {
				return "append to " + types.ExprString(s.Lhs[i])
			}
		}
	}
	return ""
}

func isBuiltinAppend(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// declaredInside reports whether expr is a plain identifier declared within
// the loop body (iteration-local storage; order cannot leak out). Selector
// and index expressions are conservatively treated as outside.
func declaredInside(pass *framework.Pass, rs *ast.RangeStmt, expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End()
}

// isCollectThenSort recognizes the legal idiom: the body is exactly one
// append of the loop variables into a slice, and a later statement in the
// enclosing block passes that slice to the sort or slices package.
func isCollectThenSort(pass *framework.Pass, f *ast.File, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	s, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 {
		return false
	}
	// Appended values must be the loop key/value identifiers only.
	loopVars := map[string]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok {
			loopVars[id.Name] = true
		}
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !loopVars[id.Name] {
			return false
		}
	}
	dest := types.ExprString(s.Lhs[0])
	return sortedLater(pass, f, rs, dest)
}

// sortedLater reports whether a statement after rs in its enclosing block
// calls sort.* or slices.* with dest among the arguments.
func sortedLater(pass *framework.Pass, f *ast.File, rs *ast.RangeStmt, dest string) bool {
	following := statementsAfter(f, rs)
	for _, stmt := range following {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, _, ok := lintutil.PkgQualified(pass.TypesInfo, sel)
			if !ok || (path != "sort" && path != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(arg) == dest {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// statementsAfter finds the block holding rs as a direct statement and
// returns the statements after it.
func statementsAfter(f *ast.File, rs *ast.RangeStmt) []ast.Stmt {
	var after []ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			if stmt == ast.Stmt(rs) {
				after = block.List[i+1:]
				return false
			}
		}
		return true
	})
	return after
}
