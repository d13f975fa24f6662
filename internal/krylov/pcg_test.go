package krylov

import (
	"math"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

func poissonSystem(t *testing.T, nx int, seed int64) (*sparse.CSR, []float64, []float64, []float64) {
	t.Helper()
	a := problem.Poisson2D(nx, nx)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	xTrue := problem.RandomVec(a.N, seed)
	b := make([]float64, a.N)
	a.MulVec(xTrue, b)
	return a, b, make([]float64, a.N), xTrue
}

func TestPlainCGSolvesPoisson(t *testing.T) {
	a, b, x, xTrue := poissonSystem(t, 20, 41)
	res, err := Solve(a, b, x, nil, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iterations", res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("solution error at %d", i)
		}
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := problem.Poisson2D(4, 4)
	if _, err := Solve(a, make([]float64, 3), make([]float64, a.N), nil, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestCGZeroResidualImmediate(t *testing.T) {
	a, b, _, xTrue := poissonSystem(t, 6, 42)
	res, err := Solve(a, b, xTrue, nil, Options{})
	if err != nil || !res.Converged || res.Iterations != 0 {
		t.Errorf("exact start: res=%+v err=%v", res, err)
	}
}

// distPrec applies k parallel steps of a distributed method from a zero
// initial guess as a preconditioner — the paper's intended use. The Setup is
// built once and every application reuses it, as a preconditioner would.
func distPrec(t *testing.T, a *sparse.CSR, method core.DistMethod, ranks, steps int) Preconditioner {
	t.Helper()
	l, err := dmem.NewLayout(a, partition.Partition(a, ranks, partition.Options{Seed: 1}), ranks)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dmem.NewSetup(l, dmem.LocalGS)
	if err != nil {
		t.Fatal(err)
	}
	return PrecFunc(func(r, z []float64) {
		res, err := core.SolveDistributed(a, r, make([]float64, a.N), core.DistOptions{
			Method: method, Ranks: ranks, Steps: steps, Setup: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		copy(z, res.X)
	})
}

func TestBlockJacobiAndDistSWPreconditioning(t *testing.T) {
	// Flexible CG with 3 steps of each method as preconditioner must
	// converge in far fewer iterations than plain CG.
	a, b, x0, _ := poissonSystem(t, 24, 43)
	plain, err := Solve(a, b, sparse.CopyVec(x0), nil, Options{Tol: 1e-8})
	if err != nil || !plain.Converged {
		t.Fatalf("plain CG: %+v %v", plain, err)
	}
	// Block Jacobi relaxes every subdomain every step; Distributed
	// Southwell relaxes only locally-maximal ones, so it needs more
	// parallel steps before M⁻¹r has support everywhere (a 3-step DS
	// application leaves most components untouched and is no
	// preconditioner at all). Step counts chosen for comparable coverage.
	for m, steps := range map[core.DistMethod]int{core.BlockJacobi: 3, core.DistSWD: 20} {
		x := sparse.CopyVec(x0)
		res, err := Solve(a, b, x, distPrec(t, a, m, 8, steps), Options{Tol: 1e-8, Flexible: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s-preconditioned CG did not converge", m)
		}
		if res.Iterations >= plain.Iterations {
			t.Errorf("%s preconditioning did not help: %d vs plain %d",
				m, res.Iterations, plain.Iterations)
		}
		rr := make([]float64, a.N)
		a.Residual(b, x, rr)
		if sparse.Norm2(rr) > 1e-7*sparse.Norm2(b) {
			t.Errorf("%s: final residual too large", m)
		}
	}
}

func TestDistSWPreconditionerBeatsBlockJacobiAtScale(t *testing.T) {
	// With many ranks on a plate operator, Block Jacobi steps are a
	// divergent preconditioner while Distributed Southwell still reduces
	// the CG iteration count — the preconditioning side of Figure 9.
	a := problem.PlateMix3D(12, 12, 12, 1, 0.5)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	xTrue := problem.RandomVec(a.N, 44)
	b := make([]float64, a.N)
	a.MulVec(xTrue, b)

	solveWith := func(m Preconditioner) Result {
		res, err := Solve(a, b, make([]float64, a.N), m, Options{Tol: 1e-6, MaxIter: 3000, Flexible: m != nil})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := solveWith(nil)
	ds := solveWith(distPrec(t, a, core.DistSWD, 64, 30))
	if !ds.Converged {
		t.Fatal("DS-preconditioned CG did not converge")
	}
	if ds.Iterations >= plain.Iterations {
		t.Errorf("DS preconditioning did not reduce iterations: %d vs %d", ds.Iterations, plain.Iterations)
	}
}

func TestFlexibleMatchesPlainWithFixedPreconditioner(t *testing.T) {
	// With a fixed SPD preconditioner (identity), flexible and plain CG
	// follow the same trajectory.
	a, b, x0, _ := poissonSystem(t, 12, 45)
	p1, err := Solve(a, b, sparse.CopyVec(x0), Identity{}, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Solve(a, b, sparse.CopyVec(x0), Identity{}, Options{Tol: 1e-10, Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Iterations != p2.Iterations {
		t.Errorf("iteration counts differ: %d vs %d", p1.Iterations, p2.Iterations)
	}
}
