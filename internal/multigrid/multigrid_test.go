package multigrid

import (
	"math"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

func TestNewValidatesGridSize(t *testing.T) {
	if _, err := New(16, GaussSeidel{}); err == nil {
		t.Error("accepted nx not of form 2^k-1")
	}
	if _, err := New(1, GaussSeidel{}); err == nil {
		t.Error("accepted nx too small")
	}
	h, err := New(15, GaussSeidel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) != 3 { // 15 -> 7 -> 3
		t.Errorf("levels = %d, want 3", len(h.levels))
	}
}

func TestVCycleConvergesGS(t *testing.T) {
	h, err := New(63, GaussSeidel{})
	if err != nil {
		t.Fatal(err)
	}
	n := 63 * 63
	b := problem.RandomVec(n, 1)
	x := make([]float64, n)
	hist := h.Solve(b, x, 9)
	if hist[len(hist)-1] > 1e-6 {
		t.Errorf("9 V-cycles reached %g, want <= 1e-6", hist[len(hist)-1])
	}
	// Monotone decrease.
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1] {
			t.Errorf("residual grew at cycle %d: %g -> %g", i, hist[i-1], hist[i])
		}
	}
}

func TestVCycleSolvesSystem(t *testing.T) {
	h, err := New(31, GaussSeidel{})
	if err != nil {
		t.Fatal(err)
	}
	a := problem.Poisson2D(31, 31)
	n := a.N
	xTrue := problem.RandomVec(n, 2)
	b := make([]float64, n)
	a.MulVec(xTrue, b)
	x := make([]float64, n)
	h.Solve(b, x, 20)
	diff := 0.0
	for i := range x {
		diff += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
	}
	if math.Sqrt(diff) > 1e-6*math.Sqrt(sparse.SumSquares(xTrue)) {
		t.Errorf("V-cycle solution error %g", math.Sqrt(diff))
	}
}

func TestVCycleConvergesDistSW(t *testing.T) {
	for _, frac := range []float64{1, 0.5} {
		h, err := New(63, DistSW{SweepFraction: frac, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		n := 63 * 63
		b := problem.RandomVec(n, 3)
		x := make([]float64, n)
		hist := h.Solve(b, x, 9)
		if hist[len(hist)-1] > 1e-5 {
			t.Errorf("frac %g: 9 V-cycles reached %g", frac, hist[len(hist)-1])
		}
	}
}

// Figure 6 headline: convergence after 9 V-cycles is grid-size independent
// for both GS and Distributed Southwell smoothing, and Distributed
// Southwell is at least as effective per relaxation.
func TestGridIndependentConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep is slow in -short mode")
	}
	for _, sm := range []Smoother{GaussSeidel{}, DistSW{SweepFraction: 0.5, Seed: 1}, DistSW{Seed: 1}} {
		var finals []float64
		for _, nx := range []int{15, 31, 63, 127} {
			h, err := New(nx, sm)
			if err != nil {
				t.Fatal(err)
			}
			n := nx * nx
			b := problem.RandomVec(n, 4)
			x := make([]float64, n)
			hist := h.Solve(b, x, 9)
			finals = append(finals, hist[len(hist)-1])
		}
		// All grids converge well.
		for i, f := range finals {
			if f > 1e-5 {
				t.Errorf("%s: grid %d final %g", sm.Name(), i, f)
			}
		}
		// Grid independence: largest/smallest within ~2.5 orders of
		// magnitude (the paper's Figure 6 spans about one order).
		lo, hi := finals[0], finals[0]
		for _, f := range finals {
			lo = math.Min(lo, f)
			hi = math.Max(hi, f)
		}
		if hi/lo > 300 {
			t.Errorf("%s: convergence not grid-independent: range %g..%g", sm.Name(), lo, hi)
		}
	}
}

func TestDistSWSmootherExactBudget(t *testing.T) {
	// The DistSW smoother must relax exactly its budget; verify via the
	// solver trace on a standalone call.
	a := problem.Poisson2D(20, 20)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	b, x := problem.RandomBSystem(a, 5)
	budget := a.N/2 + 7
	tr := solvers.DistributedSouthwell(a, b, x, solvers.Options{
		MaxRelax: budget, ExactBudget: true, Seed: 3,
	})
	if tr.Final().CumRelax != budget {
		t.Errorf("relaxations = %d, want exactly %d", tr.Final().CumRelax, budget)
	}
}

func TestRestrictProlongShapes(t *testing.T) {
	// Restriction of a constant-1 residual on the fine grid gives 4 at
	// interior coarse points (full weighting sums to 1, times the h²
	// rediscretization factor 4).
	nf, nc := 7, 3
	rf := make([]float64, nf*nf)
	for i := range rf {
		rf[i] = 1
	}
	rc := make([]float64, nc*nc)
	restrict(rf, nf, rc, nc)
	center := rc[1*nc+1]
	if math.Abs(center-4) > 1e-12 {
		t.Errorf("center restriction = %g, want 4", center)
	}
	// Prolongation of a delta at the coarse center adds 1 at the matching
	// fine point and 1/4 at diagonal neighbors.
	ec := make([]float64, nc*nc)
	ec[1*nc+1] = 1
	xf := make([]float64, nf*nf)
	prolongAdd(ec, nc, xf, nf)
	if xf[3*nf+3] != 1 {
		t.Errorf("prolong center = %g, want 1", xf[3*nf+3])
	}
	if xf[2*nf+2] != 0.25 {
		t.Errorf("prolong diagonal = %g, want 0.25", xf[2*nf+2])
	}
	if xf[3*nf+2] != 0.5 {
		t.Errorf("prolong edge = %g, want 0.5", xf[3*nf+2])
	}
}

func TestSmootherNames(t *testing.T) {
	if (GaussSeidel{}).Name() != "GS" {
		t.Error("GS name")
	}
	if (DistSW{}).Name() != "Dist SW" {
		t.Error("DistSW name")
	}
	if (DistSW{SweepFraction: 0.5}).Name() != "Dist SW 0.5 sweep" {
		t.Error("DistSW half-sweep name")
	}
}
