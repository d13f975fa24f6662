package dmem

import (
	"math"
	"testing"

	"southwell/internal/problem"
)

func TestDirectLocalSolverExactResidual(t *testing.T) {
	a := problem.Poisson2D(20, 20)
	for name, run := range methods() {
		s, b, x := buildCaseLocal(t, a.Clone(), 8, 31, LocalDirect)
		res := run(s, b, x, Config{Steps: 15})
		got := exactGlobalNorm(s.Layout.A, b, res.X)
		if math.Abs(got-res.Final().ResNorm) > 1e-9 {
			t.Errorf("%s direct: reported %g, true %g", name, res.Final().ResNorm, got)
		}
	}
}

func TestDirectLocalSolverBeatsGSOnFirstStep(t *testing.T) {
	// An exact local solve zeroes the interior residual, so the first
	// step's residual is boundary-only and strictly smaller than one GS
	// sweep's. (Over many steps the comparison can flip — exact subdomain
	// solves overcorrect at block boundaries — so only step 1 is asserted.)
	a := problem.Poisson2D(24, 24)
	s1, b1, x1 := buildCase(t, a.Clone(), 8, 32)
	gs := BlockJacobi(s1, b1, x1, Config{Steps: 1})
	s2, b2, x2 := buildCaseLocal(t, a.Clone(), 8, 32, LocalDirect)
	direct := BlockJacobi(s2, b2, x2, Config{Steps: 1})
	if direct.Final().ResNorm >= gs.Final().ResNorm {
		t.Errorf("direct %g should beat GS sweep %g on step 1", direct.Final().ResNorm, gs.Final().ResNorm)
	}
	// And both remain convergent over more steps.
	s3, b3, x3 := buildCaseLocal(t, a.Clone(), 8, 32, LocalDirect)
	long := BlockJacobi(s3, b3, x3, Config{Steps: 20})
	if long.Final().ResNorm > 0.05 {
		t.Errorf("direct local solve stalled: %g", long.Final().ResNorm)
	}
}

func TestDirectLocalZeroesLocalResidual(t *testing.T) {
	// After a Block Jacobi step with direct local solves, each rank's local
	// residual equals only the incoming boundary contributions from the
	// same step — never stale local coupling. One step on one rank checks
	// this: relax, absorb, then the residual rows interior to a rank whose
	// neighbors did not touch them must be exactly zero. With P=1 there are
	// no neighbors at all, so the whole residual is zero after one step.
	a := problem.Poisson2D(12, 12)
	s, b, x := buildCaseLocal(t, a, 1, 33, LocalDirect)
	res := BlockJacobi(s, b, x, Config{Steps: 1})
	if res.Final().ResNorm > 1e-10 {
		t.Errorf("single-rank direct solve should be exact, got %g", res.Final().ResNorm)
	}
}

func TestDistSWWithDirectLocalConverges(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	s, b, x := buildCaseLocal(t, a, 16, 34, LocalDirect)
	res := DistributedSouthwell(s, b, x, Config{Steps: 40})
	if res.Final().ResNorm > 0.1 {
		t.Errorf("DS + direct local solve reached only %g", res.Final().ResNorm)
	}
}
