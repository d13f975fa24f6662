package spdirect_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"southwell/internal/dense"
	"southwell/internal/problem"
	"southwell/internal/sparse"
	"southwell/internal/spdirect"
)

// denseFromCSR expands a sparse matrix for the dense reference factors.
func denseFromCSR(a *sparse.CSR) *dense.Matrix {
	m := dense.NewMatrix(a.N)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			m.Set(i, int(c), vals[k])
		}
	}
	return m
}

// randomSPD builds a random sparse symmetric diagonally dominant matrix:
// n rows, ~deg off-diagonal entries per row, values in [-1, 0), diagonal
// = row sum of magnitudes + 1 (strictly dominant, hence SPD).
func randomSPD(n, deg int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n*(2*deg+1))
	offSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for t := 0; t < deg; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -rng.Float64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			offSum[i] += -v
			offSum[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, offSum[i]+1)
	}
	return coo.ToCSR()
}

// factor is spdirect.Factorize, or with natural the identity ordering
// through the FactorizePerm test hook.
func factor(t *testing.T, a *sparse.CSR, natural bool) *spdirect.Factor {
	t.Helper()
	var f *spdirect.Factor
	var err error
	if natural {
		perm := make([]int32, a.N)
		for i := range perm {
			perm[i] = int32(i)
		}
		f, err = spdirect.FactorizePerm(a.RowPtr, a.Col, a.Val, perm)
	} else {
		f, err = spdirect.Factorize(a.RowPtr, a.Col, a.Val)
	}
	if err != nil {
		t.Fatalf("spdirect Factorize: %v", err)
	}
	return f
}

// solveBoth factors a with both spdirect (under RCM, or the natural
// ordering) and dense Cholesky, which is exact on the SPD input Factorize
// accepts, and solves for the same right-hand side, returning the two
// solutions.
func solveBoth(t *testing.T, a *sparse.CSR, natural bool, seed int64) (sp, dn []float64) {
	t.Helper()
	f := factor(t, a, natural)
	ch, err := dense.FactorCholesky(denseFromCSR(a))
	if err != nil {
		t.Fatalf("dense.FactorCholesky: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	sp = make([]float64, a.N)
	dn = make([]float64, a.N)
	f.SolveWith(b, sp, make([]float64, a.N))
	ch.Solve(b, dn)
	return sp, dn
}

// maxRelDiff returns max_i |x_i - y_i| / max(1, ‖y‖_inf).
func maxRelDiff(x, y []float64) float64 {
	scale := 1.0
	for _, v := range y {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	d := 0.0
	for i := range x {
		if a := math.Abs(x[i] - y[i]); a > d {
			d = a
		}
	}
	return d / scale
}

// TestMatchesDenseOnRandomSPD is the headline property test: on random
// SPD blocks of varied size and density, the sparse LDLᵀ solve and the
// dense Cholesky solve agree to near machine precision, under both orderings.
func TestMatchesDenseOnRandomSPD(t *testing.T) {
	cases := []struct {
		n, deg int
		seed   int64
	}{
		{1, 0, 1}, {2, 1, 2}, {5, 2, 3}, {17, 3, 4}, {64, 4, 5},
		{128, 2, 6}, {257, 5, 7}, {400, 8, 8},
	}
	for _, natural := range []bool{false, true} {
		for _, c := range cases {
			a := randomSPD(c.n, c.deg, c.seed)
			sp, dn := solveBoth(t, a, natural, c.seed+100)
			if d := maxRelDiff(sp, dn); d > 1e-12 {
				t.Errorf("natural ordering %v n=%d deg=%d: sparse vs dense diff %g", natural, c.n, c.deg, d)
			}
		}
	}
}

// TestMatchesDenseOnPDEBlocks covers the structured blocks the solver
// exists for: 2D/3D Poisson and FEM matrices (whole, as one "subdomain").
func TestMatchesDenseOnPDEBlocks(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"poisson2d-20": problem.Poisson2D(20, 20),
		"poisson3d-8":  problem.Poisson3D(8, 8, 8, nil, 1, 1, 1),
		"fem2d-14":     problem.FEM2D(14, 0.35, 1),
		"aniso-16":     problem.Aniso2D(16, 16, 100),
	}
	for name, a := range mats {
		if _, err := sparse.Scale(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp, dn := solveBoth(t, a, false, 42)
		if d := maxRelDiff(sp, dn); d > 1e-12 {
			t.Errorf("%s: sparse vs dense diff %g", name, d)
		}
	}
}

// TestResidualIsTiny checks A x ≈ b directly (independent of the dense
// reference): forward error through the factorization is at roundoff.
func TestResidualIsTiny(t *testing.T) {
	a := problem.Poisson2D(30, 30)
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	f, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, a.N)
	f.SolveWith(b, x, make([]float64, a.N))
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	if n := math.Sqrt(sparse.SumSquares(r)) / math.Sqrt(sparse.SumSquares(b)); n > 1e-11 {
		t.Errorf("relative residual %g", n)
	}
}

// TestSolveAliasAllowed: x may alias b.
func TestSolveAliasAllowed(t *testing.T) {
	a := randomSPD(50, 3, 9)
	f, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want, y := make([]float64, a.N), make([]float64, a.N)
	f.SolveWith(b, want, y)
	f.SolveWith(b, b, y) // aliased
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, b[i], want[i])
		}
	}
}

// TestOrderingInvariants: perm is a permutation, L's pattern is fixed and
// well-formed (ascending rows within each column, all below-diagonal), Li
// keeps a row index only for the entries after each column's maximal
// leading run, and RCM reduces fill against the natural ordering on a
// banded-friendly PDE block.
func TestOrderingInvariants(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	f := factor(t, a, false)
	seen := make([]bool, a.N)
	for _, old := range spdirect.Perm(f) {
		if old < 0 || int(old) >= a.N || seen[old] {
			t.Fatalf("Perm is not a permutation")
		}
		seen[old] = true
	}
	lp, rows, lead := spdirect.ColPtr(f), spdirect.Rows(f), spdirect.Lead(f)
	inRuns := 0
	for i := 0; i < a.N; i++ {
		prev := i // entries must be strictly below the diagonal
		for p := lp[i]; p < lp[i+1]; p++ {
			r := int(rows[p])
			if r <= prev {
				t.Fatalf("column %d: row indices not ascending below diagonal (%d after %d)", i, r, prev)
			}
			prev = r
		}
		// Each leading run is maximal: the tail does not start at the row
		// after the run, whose index it would then keep.
		if m := int(lead[i]); lp[i]+m < lp[i+1] && int(rows[lp[i]+m]) == i+1+m {
			t.Fatalf("column %d: leading run of %d stops before row %d", i, m, i+1+m)
		}
		inRuns += int(lead[i])
	}
	if len(f.Li) != len(f.Lx)-inRuns {
		t.Errorf("Li keeps %d row indices, want nnz(L) %d less %d in leading runs", len(f.Li), len(f.Lx), inRuns)
	}

	if nat := factor(t, a, true); len(f.Lx) > len(nat.Lx) {
		t.Errorf("RCM fill %d exceeds natural fill %d on a 2D Poisson block", len(f.Lx), len(nat.Lx))
	}
}

// TestRejectsBadInput: dimension/index validation and the SPD guard.
func TestRejectsBadInput(t *testing.T) {
	if _, err := spdirect.Factorize(nil, nil, nil); err == nil {
		t.Error("empty rowPtr accepted")
	}
	if _, err := spdirect.Factorize([]int32{0, 1, 2}, []int32{0, 5}, []float64{1, 1}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := spdirect.Factorize([]int32{0, 1, 2}, []int32{0, 1}, []float64{1}); err == nil {
		t.Error("short val accepted")
	}
	// Indefinite matrix: diag(1, -1).
	if _, err := spdirect.Factorize([]int32{0, 1, 2}, []int32{0, 1}, []float64{1, -1}); !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
		t.Errorf("indefinite matrix: got %v", err)
	}
	// Missing diagonal behaves as a zero pivot.
	if _, err := spdirect.Factorize([]int32{0, 0}, nil, nil); !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
		t.Errorf("empty matrix: got %v", err)
	}
}

// TestRejectsMalformedRowPointers: row pointers that do not start at zero,
// decrease, or point past col and val are an error, not an index panic.
func TestRejectsMalformedRowPointers(t *testing.T) {
	for _, c := range []struct {
		name   string
		rowPtr []int32
	}{
		{"negative first", []int32{-1, 1, 2}},
		{"nonzero first", []int32{1, 1, 2}},
		{"decreasing", []int32{0, 5, 2}},
		{"past col", []int32{0, 1, 3}},
	} {
		f, err := spdirect.Factorize(c.rowPtr, []int32{0, 1}, []float64{1, 1})
		if err == nil || errors.Is(err, spdirect.ErrNotPositiveDefinite) || f != nil {
			t.Errorf("%s %v: got %v, %v; want a validation error", c.name, c.rowPtr, f, err)
		}
	}
}

// TestSolveFlopsAccounting: the charged solve cost is exactly 4·nnz(L)+n.
func TestSolveFlopsAccounting(t *testing.T) {
	a := randomSPD(80, 4, 17)
	f, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*float64(spdirect.ColPtr(f)[a.N]) + float64(a.N)
	if got := f.SolveFlops(); got != want {
		t.Errorf("SolveFlops = %g, want %g", got, want)
	}
}
