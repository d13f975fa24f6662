package solvers

import (
	"testing"

	"southwell/internal/color"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// The scalar mechanism behind the paper's Block Jacobi failures: on a
// unit-diagonal SPD matrix with spectral radius beyond 2 (the biharmonic
// plate operator), point Jacobi diverges while Gauss-Seidel — and the
// Southwell family, which relaxes (near-)independent sets — converges.
func TestJacobiDivergesOnPlateGSDoesNot(t *testing.T) {
	build := func() (*sparse.CSR, []float64, []float64) {
		a := problem.Biharmonic2D(16, 16)
		if _, err := sparse.Scale(a); err != nil {
			t.Fatal(err)
		}
		b, x := problem.RandomBSystem(a, 31)
		return a, b, x
	}
	a, b, x := build()
	ja := Jacobi(a, b, x, Options{MaxRelax: 60 * a.N})
	if ja.Final().ResNorm < 1 {
		t.Fatalf("Jacobi unexpectedly converged: %g", ja.Final().ResNorm)
	}
	a2, b2, x2 := build()
	gs := GaussSeidel(a2, b2, x2, Options{MaxRelax: 60 * a2.N})
	if gs.Final().ResNorm >= 1 {
		t.Errorf("Gauss-Seidel diverged on SPD matrix: %g", gs.Final().ResNorm)
	}
	a3, b3, x3 := build()
	ps := ParallelSouthwell(a3, b3, x3, Options{MaxRelax: 10 * a3.N})
	if ps.Final().ResNorm >= 1 {
		t.Errorf("Parallel Southwell diverged: %g", ps.Final().ResNorm)
	}
	// Scalar Distributed Southwell carries the §4.3 caveat: with inexact
	// estimates, adjacent rows can relax simultaneously, and on a spectrum
	// this extreme (λmax > 2) that Jacobi-like behaviour can diverge. The
	// block form with subdomain GS sweeps converges on the same operator
	// (see dmem.TestSouthwellMethodsStableOnPlate); here we only record
	// the scalar outcome rather than assert it.
	a4, b4, x4 := build()
	ds := DistributedSouthwell(a4, b4, x4, Options{MaxRelax: 10 * a4.N})
	t.Logf("scalar Distributed Southwell on plate: final ||r|| = %g (divergence is a known risk)", ds.Final().ResNorm)
}

func TestMulticolorGSWithExplicitColoring(t *testing.T) {
	a := problem.Poisson2D(10, 10)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	c := color.Greedy(a)
	b, x := problem.RandomBSystem(a, 32)
	tr := MulticolorGSWith(a, b, x, c, Options{MaxRelax: a.N})
	if tr.NumSteps() != c.NumColors {
		t.Errorf("one sweep = %d steps, want %d colors", tr.NumSteps(), c.NumColors)
	}
}

func TestDistSWExactBudgetAcrossBudgets(t *testing.T) {
	a := problem.Poisson2D(12, 12)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 7, a.N / 2, a.N, 2*a.N + 3} {
		b, x := problem.RandomBSystem(a, 33)
		tr := DistributedSouthwell(a, b, x, Options{MaxRelax: budget, ExactBudget: true, Seed: 5})
		if tr.Final().CumRelax != budget {
			t.Errorf("budget %d: relaxed %d", budget, tr.Final().CumRelax)
		}
	}
}
