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

// widen returns a copy of a matrix's int32 index array in the []int form
// Analyze and Factorize take.
func widen(s []int32) []int {
	w := make([]int, len(s))
	for i, v := range s {
		w[i] = int(v)
	}
	return w
}

// denseFromCSR expands a sparse matrix for the dense reference factors.
func denseFromCSR(a *sparse.CSR) *dense.Matrix {
	m := dense.NewMatrix(a.N)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			m.Add(i, int(c), vals[k])
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

// analyze is spdirect.Analyze, or with natural the identity ordering
// through the AnalyzePerm test hook.
func analyze(t *testing.T, a *sparse.CSR, natural bool) *spdirect.Symbolic {
	t.Helper()
	if natural {
		perm := make([]int, a.N)
		for i := range perm {
			perm[i] = i
		}
		return spdirect.AnalyzePerm(a.N, widen(a.RowPtr), widen(a.Col), perm)
	}
	sym, err := spdirect.Analyze(a.N, widen(a.RowPtr), widen(a.Col))
	if err != nil {
		t.Fatalf("spdirect.Analyze: %v", err)
	}
	return sym
}

// solveBoth factors a with both spdirect (under RCM, or the natural
// ordering) and dense LU and solves for the same right-hand side, returning
// the two solutions.
func solveBoth(t *testing.T, a *sparse.CSR, natural bool, seed int64) (sp, dn []float64) {
	t.Helper()
	f, err := analyze(t, a, natural).Factorize(a.Val)
	if err != nil {
		t.Fatalf("spdirect Factorize: %v", err)
	}
	lu, err := dense.FactorLU(denseFromCSR(a))
	if err != nil {
		t.Fatalf("dense.FactorLU: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	sp = make([]float64, a.N)
	dn = make([]float64, a.N)
	f.SolveWith(b, sp, make([]float64, a.N))
	lu.Solve(b, dn)
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
// dense LU solve agree to near machine precision, under both orderings.
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
	f, err := spdirect.Factorize(a.N, widen(a.RowPtr), widen(a.Col), a.Val)
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
	if n := sparse.Norm2(r) / sparse.Norm2(b); n > 1e-11 {
		t.Errorf("relative residual %g", n)
	}
}

// TestSolveAliasAllowed: x may alias b.
func TestSolveAliasAllowed(t *testing.T) {
	a := randomSPD(50, 3, 9)
	f, err := spdirect.Factorize(a.N, widen(a.RowPtr), widen(a.Col), a.Val)
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

// TestRefactorBitIdentical: refactoring with the same values reproduces L,
// D, and solutions bit for bit, and refactoring with scaled values equals
// a fresh factorization of the scaled matrix.
func TestRefactorBitIdentical(t *testing.T) {
	a := randomSPD(120, 4, 11)
	sym, err := spdirect.Analyze(a.N, widen(a.RowPtr), widen(a.Col))
	if err != nil {
		t.Fatal(err)
	}
	f, err := sym.Factorize(a.Val)
	if err != nil {
		t.Fatal(err)
	}
	l0 := append([]float64(nil), f.Lx...)
	d0 := append([]float64(nil), f.D...)
	if err := f.Refactor(a.Val); err != nil {
		t.Fatal(err)
	}
	for i := range l0 {
		if f.Lx[i] != l0[i] {
			t.Fatalf("Lx[%d] changed across identical Refactor: %g vs %g", i, f.Lx[i], l0[i])
		}
	}
	for i := range d0 {
		if f.D[i] != d0[i] {
			t.Fatalf("D[%d] changed across identical Refactor: %g vs %g", i, f.D[i], d0[i])
		}
	}

	scaled := make([]float64, len(a.Val))
	for i, v := range a.Val {
		scaled[i] = 2 * v
	}
	if err := f.Refactor(scaled); err != nil {
		t.Fatal(err)
	}
	fresh, err := sym.Factorize(scaled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Lx {
		if f.Lx[i] != fresh.Lx[i] {
			t.Fatalf("Refactor vs fresh Factorize differ in Lx[%d]", i)
		}
	}
	for i := range fresh.D {
		if f.D[i] != fresh.D[i] {
			t.Fatalf("Refactor vs fresh Factorize differ in D[%d]", i)
		}
	}
}

// TestRefactorAfterFailureRecovers: a failed Refactor (indefinite values)
// leaves the factor able to refactor good values again, identically.
func TestRefactorAfterFailureRecovers(t *testing.T) {
	a := randomSPD(60, 3, 13)
	sym, err := spdirect.Analyze(a.N, widen(a.RowPtr), widen(a.Col))
	if err != nil {
		t.Fatal(err)
	}
	f, err := sym.Factorize(a.Val)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), f.Lx...)

	bad := make([]float64, len(a.Val))
	for i, v := range a.Val {
		bad[i] = -v // negative definite: first pivot fails
	}
	if err := f.Refactor(bad); !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
		t.Fatalf("negative-definite Refactor: got %v, want ErrNotPositiveDefinite", err)
	}
	if err := f.Refactor(a.Val); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if f.Lx[i] != want[i] {
			t.Fatalf("post-failure Refactor differs in Lx[%d]", i)
		}
	}
}

// TestOrderingInvariants: perm is a permutation, L's pattern is fixed and
// well-formed (ascending rows within each column, all below-diagonal),
// and RCM reduces fill against the natural ordering on a banded-friendly
// PDE block.
func TestOrderingInvariants(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	sym := analyze(t, a, false)
	seen := make([]bool, sym.N)
	for _, old := range sym.Perm {
		if old < 0 || old >= sym.N || seen[old] {
			t.Fatalf("Perm is not a permutation")
		}
		seen[old] = true
	}
	for old, k := range sym.Pinv {
		if sym.Perm[k] != old {
			t.Fatalf("Pinv does not invert Perm at %d", old)
		}
	}
	f, err := sym.Factorize(a.Val)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sym.N; i++ {
		prev := i // entries must be strictly below the diagonal
		for p := sym.Lp[i]; p < sym.Lp[i+1]; p++ {
			r := int(f.Li[p])
			if r <= prev {
				t.Fatalf("column %d: row indices not ascending below diagonal (%d after %d)", i, r, prev)
			}
			prev = r
		}
	}

	if nat := analyze(t, a, true); sym.NNZL() > nat.NNZL() {
		t.Errorf("RCM fill %d exceeds natural fill %d on a 2D Poisson block", sym.NNZL(), nat.NNZL())
	}
}

// TestRejectsBadInput: dimension/index validation and the SPD guard.
func TestRejectsBadInput(t *testing.T) {
	if _, err := spdirect.Analyze(2, []int{0, 1}, []int{0}); err == nil {
		t.Error("short rowPtr accepted")
	}
	if _, err := spdirect.Analyze(2, []int{0, 1, 2}, []int{0, 5}); err == nil {
		t.Error("out-of-range column accepted")
	}
	// Indefinite matrix: diag(1, -1).
	rowPtr := []int{0, 1, 2}
	col := []int{0, 1}
	val := []float64{1, -1}
	if _, err := spdirect.Factorize(2, rowPtr, col, val); !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
		t.Errorf("indefinite matrix: got %v", err)
	}
	// Missing diagonal behaves as a zero pivot.
	if _, err := spdirect.Factorize(1, []int{0, 0}, nil, nil); !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
		t.Errorf("empty matrix: got %v", err)
	}
}

// TestSolveFlopsAccounting: the charged solve cost is exactly 4·nnz(L)+n.
func TestSolveFlopsAccounting(t *testing.T) {
	a := randomSPD(80, 4, 17)
	f, err := spdirect.Factorize(a.N, widen(a.RowPtr), widen(a.Col), a.Val)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*float64(f.Symbolic().NNZL()) + float64(a.N)
	if got := f.SolveFlops(); got != want {
		t.Errorf("SolveFlops = %g, want %g", got, want)
	}
}
