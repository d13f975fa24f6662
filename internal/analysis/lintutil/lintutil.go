// Package lintutil holds the project policy and type-inspection helpers
// shared by the dslint analyzers: which packages must be deterministic and
// what counts as a method on the simulated RMA runtime.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// IsDeterministic is the one scope rule of the determinism analyzers
// (detrand, maporder): every package under an internal/ directory must be
// bit-reproducible from explicit seeds (DESIGN.md §6, §8) — no unseeded
// randomness, no wall-clock reads, no map-ordered output — except the
// analyzers themselves (internal/analysis/...), which never run inside a
// solve. Commands and benchmarks/ sit outside internal/ and may time
// themselves. The rule looks at path elements, not at the module name, so
// analyzer test fixtures (internal/rma) and any other module laid out the
// same way (x/internal/rma) are in scope too.
func IsDeterministic(pkgPath string) bool {
	const marker = "/internal/"
	p := "/" + pkgPath + "/"
	i := strings.Index(p, marker)
	if i < 0 {
		return false
	}
	rest := p[i+len(marker):]
	return rest != "" && !strings.HasPrefix(rest, "analysis/")
}

// WorldMethod returns the *types.Func when call invokes the named method on
// rma.World (package identified by name "rma" so fixtures with a mini rma
// package exercise the same code path), and nil otherwise.
func WorldMethod(info *types.Info, call *ast.CallExpr, name string) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "World" {
		return nil
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pkg.Name() != "rma" {
		return nil
	}
	return fn
}

// IsFloat reports whether t's underlying type is a floating-point basic
// type (including untyped float constants).
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// PkgQualified resolves sel to (package path, object) when sel is a
// package-qualified reference like rand.Intn; ok is false for field and
// method selections.
func PkgQualified(info *types.Info, sel *ast.SelectorExpr) (string, types.Object, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil, false
	}
	if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
		return "", nil, false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", nil, false
	}
	return obj.Pkg().Path(), obj, true
}
