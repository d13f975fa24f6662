package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"southwell/internal/problem"
)

func randomSPD(n int, rng *rand.Rand) *Matrix {
	// A = B Bᵀ + n I is SPD.
	b := NewMatrix(n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			a.Set(i, j, s)
		}
		a.add(i, i, float64(n))
	}
	return a
}

// add increments element (i, j).
func (m *Matrix) add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// mulVec computes y = M x.
func (m *Matrix) mulVec(x, y []float64) {
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.Data[i*m.N : (i+1)*m.N]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// LU is an LU factorization with partial pivoting: P A = L U. It is the
// pivoted oracle Cholesky is checked against, and BenchmarkDenseLU's dense
// baseline for the sparse local solver; no product code factors with it.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the factorization. It fails on (numerically) singular
// matrices.
func FactorLU(a *Matrix) (*LU, error) {
	n := a.N
	f := &LU{lu: NewMatrix(n), piv: make([]int, n)}
	lu := f.lu
	copy(lu.Data, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, fmt.Errorf("dense: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.add(i, j, -m*lu.At(k, j))
			}
		}
	}
	return f, nil
}

// Solve computes x with A x = b. b is not modified; x may alias b.
func (f *LU) Solve(b, x []float64) {
	f.SolveWith(b, x, make([]float64, f.lu.N))
}

// SolveWith is Solve with a caller-provided scratch vector y (length N),
// so repeated solves against one factorization allocate nothing. y may not
// alias b or x.
func (f *LU) SolveWith(b, x, y []float64) {
	n := f.lu.N
	data := f.lu.Data
	y = y[:n]
	for i, p := range f.piv {
		y[i] = b[p]
	}
	// Forward: L y' = y (unit lower). Each row and the stretch of y it meets
	// are local slices of one length, so the dot product carries no index
	// arithmetic and no bounds check per entry.
	for i := range y {
		row := data[i*n : i*n+i]
		head := y[:len(row)]
		s := y[i]
		for j, l := range row {
			s -= l * head[j]
		}
		y[i] = s
	}
	// Backward: U x = y'.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n+i+1 : (i+1)*n] // right of the diagonal
		tail := y[i+1:][:len(row)]
		s := y[i]
		for j, u := range row {
			s -= u * tail[j]
		}
		y[i] = s / data[i*n+i]
	}
	copy(x, y)
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	a := NewMatrix(n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.add(i, i, 5)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.mulVec(xTrue, b)

	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	f.Solve(b, x)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := NewMatrix(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve([]float64{3, 7}, x)
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(3) // all zeros
	if _, err := FactorLU(a); err == nil {
		t.Error("FactorLU accepted singular matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(10, rng)
	xTrue := make([]float64, 10)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, 10)
	a.mulVec(xTrue, b)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 10)
	c.Solve(b, x)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := FactorCholesky(a); err == nil {
		t.Error("FactorCholesky accepted indefinite matrix")
	}
}

func TestSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(6, rng)
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, 6)
	c.Solve(b, x1)
	x2 := append([]float64(nil), b...)
	c.Solve(x2, x2) // aliased
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("aliased solve differs")
		}
	}
}

// Property: LU and Cholesky agree on SPD systems.
func TestQuickLUCholeskyAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		ch, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		lu.Solve(b, x1)
		ch.Solve(b, x2)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// solveRef is (*LU).SolveWith as it was written before each row became one
// local slice (DESIGN.md §10, "Kernel form"): f.lu.At(i, j) per entry.
// Compared bitwise.
func (f *LU) solveRef(b, x, y []float64) {
	n := f.lu.N
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	for i := 0; i < n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * y[j]
		}
		y[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * y[j]
		}
		y[i] = s / f.lu.At(i, i)
	}
	copy(x, y)
}

// TestLUSolveMatchesReference: SolveWith reproduces the reference solve bit
// for bit — n from 0 up, right-hand sides with exact zeros, −0, denormals,
// ±Inf and NaN, x separate from b and aliasing it.
func TestLUSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, n := range []int{0, 1, 2, 17, 64} {
		f, err := FactorLU(randomSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
				if trial > 0 && rng.Intn(4) == 0 {
					b[i] = specials[rng.Intn(len(specials))]
				}
			}
			want, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
			f.solveRef(b, want, y)
			f.SolveWith(b, x, y)
			alias := append([]float64(nil), b...)
			f.SolveWith(alias, alias, y)
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) || math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d: x[%d] = %x (aliased %x), reference %x", n, trial, i, x[i], alias[i], want[i])
				}
			}
		}
	}
}

// BenchmarkDenseLU is the dense baseline for spdirect's BenchmarkLDL on the
// same 4356-row block (a 66×66 5-point Laplacian): what the old LocalDirect
// backend paid per block. Factor is O(n³) and takes tens of seconds at this
// size, so this benchmark is excluded from `make alloc-gates`; run it
// explicitly to reproduce the ~220x comparison quoted in DESIGN.md §10.
func BenchmarkDenseLU(b *testing.B) {
	a := problem.Poisson2D(66, 66)
	dm := NewMatrix(a.N)
	rhs, x, y := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			dm.Set(i, int(c), vals[k])
		}
		rhs[i] = float64(i%17) / 17
	}
	var lu *LU
	b.Run("Factor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if lu, err = FactorLU(dm); err != nil {
				b.Fatal(err)
			}
		}
	})
	if lu == nil {
		var err error
		if lu, err = FactorLU(dm); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lu.SolveWith(rhs, x, y)
		}
	})
}
