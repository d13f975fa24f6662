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

// TestCholeskySolve: on random SPD systems of every size from 1 to 16 and
// several seeds, the solve recovers a known x and leaves a residual
// b − A x at roundoff.
func TestCholeskySolve(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 1; n <= 16; n++ {
			a := randomSPD(n, rng)
			xTrue, b, x, ax := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range xTrue {
				xTrue[i] = rng.NormFloat64()
			}
			a.mulVec(xTrue, b)
			c, err := FactorCholesky(a)
			if err != nil {
				t.Fatalf("seed %d, n = %d: %v", seed, n, err)
			}
			c.Solve(b, x)
			a.mulVec(x, ax)
			scale := 0.0
			for i := range b {
				scale = max(scale, math.Abs(b[i]))
			}
			for i := range x {
				if r := b[i] - ax[i]; math.Abs(r) > 1e-12*scale || math.Abs(x[i]-xTrue[i]) > 1e-9 {
					t.Fatalf("seed %d, n = %d: x[%d] = %g, want %g (residual %g)", seed, n, i, x[i], xTrue[i], r)
				}
			}
		}
	}
}

// TestQuickLUCholeskyAgree: on random SPD matrices of sizes 2 to 16, the
// Cholesky factor is an LU factorization of A with U = Lᵀ: L is lower
// triangular with a positive diagonal and L Lᵀ reproduces A to roundoff.
func TestQuickLUCholeskyAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(n, rng)
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		scale := 0.0
		for _, v := range a.Data {
			scale = max(scale, math.Abs(v))
		}
		for i := 0; i < n; i++ {
			if !(c.l.At(i, i) > 0) {
				return false
			}
			for j := 0; j < n; j++ {
				if j > i && c.l.At(i, j) != 0 {
					return false
				}
				s := 0.0
				for k := 0; k < n; k++ {
					s += c.l.At(i, k) * c.l.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-12*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
