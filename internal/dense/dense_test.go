package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
		a.Add(i, i, float64(n))
	}
	return a
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	a := NewMatrix(n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 5)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b)

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
	a.MulVec(xTrue, b)
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
