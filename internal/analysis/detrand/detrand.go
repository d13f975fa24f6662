// Package detrand forbids nondeterministic inputs — global math/rand
// state and wall-clock reads — in the packages whose runs must be
// bit-reproducible from explicit seeds.
//
// The simulator's correctness story (DESIGN.md §6, §8) rests on runs being
// replayable: the engine-equivalence and chaos-determinism tests compare
// entire runs bit for bit, and the paper's Γ/Γ̃ bookkeeping is only exact
// when every decision is a pure function of the seeded inputs. A single
// rand.Intn or time.Now anywhere under internal/ (the scope rule is
// lintutil.IsDeterministic: everything but the analyzers themselves)
// silently breaks all of that, so randomness must flow through an
// explicitly seeded *rand.Rand (constructing one with rand.New /
// rand.NewSource is allowed; the global functions and Seed are not). The
// only clocks in the module are in cmd/*'s profiling flags and benchmarks/,
// outside the scope.
package detrand

import (
	"go/ast"
	"go/types"

	"southwell/internal/analysis/framework"
	"southwell/internal/analysis/lintutil"
)

// Analyzer is the detrand check.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand functions and wall-clock reads in deterministic packages; " +
		"thread an explicitly seeded *rand.Rand instead",
	Run: run,
}

// allowedRand are the math/rand(/v2) package-level names that construct
// explicitly seeded generators rather than touching global state.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// nondetTime are the time-package names that read the wall clock or start
// wall-clock timers.
var nondetTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

func run(pass *framework.Pass) error {
	if !lintutil.IsDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, obj, ok := lintutil.PkgQualified(pass.TypesInfo, sel)
			if !ok {
				return true
			}
			if _, isType := obj.(*types.TypeName); isType {
				return true // rand.Rand, time.Duration, ... in type positions
			}
			switch path {
			case "math/rand", "math/rand/v2":
				if !allowedRand[obj.Name()] {
					pass.Reportf(sel.Pos(),
						"global math/rand state (rand.%s) in deterministic package %s; thread an explicitly seeded *rand.Rand through the API instead",
						obj.Name(), pass.Pkg.Path())
				}
			case "time":
				if nondetTime[obj.Name()] {
					pass.Reportf(sel.Pos(),
						"wall-clock dependence (time.%s) in deterministic package %s; simulated time must come from the rma cost model",
						obj.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
