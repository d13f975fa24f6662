package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// squarePlusDense is SquarePlus's definition taken entry by entry on a
// dense presence pattern: (i, j) of L*L is present when some k has (i, k)
// and (k, j) stored, and its products are summed in ascending k, the order
// SquarePlus accumulates them in. It agrees with SquarePlus bit for bit.
func squarePlusDense(l *CSR, alpha, beta float64) *CSR {
	n := l.N
	has := make([][]bool, n)
	val := make([][]float64, n)
	for i := range n {
		has[i], val[i] = make([]bool, n), make([]float64, n)
		cols, vals := l.Row(i)
		for k, j := range cols {
			has[i][j], val[i][j] = true, vals[k]
		}
	}
	c := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for i := range n {
		for j := range n {
			sq, inSq := 0.0, false
			for k := range n {
				if has[i][k] && has[k][j] {
					sq += val[i][k] * val[k][j]
					inSq = true
				}
			}
			inSq = inSq && (sq != 0 || i == j)
			var v float64
			switch {
			case inSq && has[i][j]:
				v = alpha*sq + beta*val[i][j]
			case inSq:
				v = alpha * sq
			case has[i][j]:
				v = beta * val[i][j]
			default:
				continue
			}
			if v != 0 || i == j {
				c.Col = append(c.Col, int32(j))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Col))
	}
	return c
}

// sameBits reports whether two matrices have the same pattern and the same
// IEEE bits in every entry.
func sameBits(a, b *CSR) bool {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) || len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// csrOf builds a matrix from its rows, each a list of (column, value)
// pairs in ascending column order, storing every pair as given.
func csrOf(rows ...[][2]float64) *CSR {
	a := &CSR{N: len(rows), RowPtr: make([]int32, len(rows)+1)}
	for i, r := range rows {
		for _, e := range r {
			a.Col = append(a.Col, int32(e[0]))
			a.Val = append(a.Val, e[1])
		}
		a.RowPtr[i+1] = int32(len(a.Col))
	}
	return a
}

// TestMulAgainstDense: the product half of SquarePlus (beta = 0, and
// alpha = 1 so the result is L*L itself) matches the dense definition bit
// for bit on random symmetric and random non-symmetric matrices.
func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	skew := randomSym(20, 0.3, rng)
	for k := range skew.Val {
		skew.Val[k] *= 1 + rng.Float64()
	}
	for _, l := range []*CSR{randomSym(20, 0.3, rng), randomSym(31, 0.15, rng), skew} {
		c := SquarePlus(l, 1, 0)
		if err := c.Validate(); err != nil {
			t.Fatalf("product invalid: %v", err)
		}
		if want := squarePlusDense(l, 1, 0); !sameBits(c, want) {
			t.Errorf("n = %d: SquarePlus(L, 1, 0) differs from the dense L*L", l.N)
		}
	}
}

// TestAddAgainstDense: alpha*L*L + beta*L matches the dense definition bit
// for bit for several weights, including alpha = 0 (beta*L alone) and
// negative weights.
func TestAddAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := randomSym(25, 0.2, rng)
	for _, w := range [][2]float64{{2.5, -1.5}, {0.8, 1}, {0, 1}, {1, 0}, {-0.3, 0.02}} {
		c := SquarePlus(l, w[0], w[1])
		if err := c.Validate(); err != nil {
			t.Fatalf("alpha, beta = %g, %g: result invalid: %v", w[0], w[1], err)
		}
		if want := squarePlusDense(l, w[0], w[1]); !sameBits(c, want) {
			t.Errorf("alpha, beta = %g, %g: SquarePlus differs from the dense definition", w[0], w[1])
		}
	}
}

// TestSquarePlusEdgeCases: the cases where the kept pattern is decided by
// exact zeros or by L's own pattern, each checked against its hand-written
// result and against the dense definition.
func TestSquarePlusEdgeCases(t *testing.T) {
	type e = [2]float64
	for _, c := range []struct {
		name        string
		l           *CSR
		alpha, beta float64
		want        *CSR
	}{
		{
			// (L*L)[0,2] = L01·L12 + L03·L32 = 1 − 1 cancels to exactly
			// zero; (0, 2) is not in L either, so it is not stored.
			name: "off-diagonal of L*L cancels: dropped",
			l: csrOf(
				[]e{{0, 2}, {1, 1}, {3, 1}},
				[]e{{1, 2}, {2, 1}},
				[]e{{2, 2}},
				[]e{{2, -1}, {3, 2}},
			),
			alpha: 1, beta: 1,
			want: csrOf(
				[]e{{0, 6}, {1, 5}, {3, 5}},
				[]e{{1, 6}, {2, 5}},
				[]e{{2, 6}},
				[]e{{2, -5}, {3, 6}},
			),
		},
		{
			// (L*L)[0,0] = 1·1 + 1·(−1) = 0 and (L*L)[1,1] = 0: a diagonal
			// is kept even when it cancels.
			name:  "diagonal of L*L cancels: kept",
			l:     csrOf([]e{{0, 1}, {1, 1}}, []e{{0, -1}, {1, 1}}),
			alpha: 1, beta: 0,
			want: csrOf([]e{{0, 0}, {1, 2}}, []e{{0, -2}, {1, 0}}),
		},
		{
			// alpha*acc is an exact zero everywhere: the result is beta*L,
			// with L's pattern.
			name:  "alpha = 0",
			l:     csrOf([]e{{0, 2}, {1, -1}}, []e{{0, -1}, {1, 2}, {2, -1}}, []e{{1, -1}, {2, 2}}),
			alpha: 0, beta: 3,
			want: csrOf([]e{{0, 6}, {1, -3}}, []e{{0, -3}, {1, 6}, {2, -3}}, []e{{1, -3}, {2, 6}}),
		},
		{
			// The result is alpha*L*L: an entry of L adds beta*l = ±0.
			name:  "beta = 0",
			l:     csrOf([]e{{0, 2}, {1, -1}}, []e{{0, -1}, {1, 2}, {2, -1}}, []e{{1, -1}, {2, 2}}),
			alpha: 2, beta: 0,
			want: csrOf([]e{{0, 10}, {1, -8}, {2, 2}}, []e{{0, -8}, {1, 12}, {2, -8}}, []e{{0, 2}, {1, -8}, {2, 10}}),
		},
		{
			// L has no diagonal, so its off-diagonals are outside L*L's
			// pattern (the diagonal): they enter as beta*l.
			name:  "entry of L outside L*L's pattern",
			l:     csrOf([]e{{1, 3}}, []e{{0, 2}}),
			alpha: 1, beta: 1,
			want: csrOf([]e{{0, 6}, {1, 3}}, []e{{0, 2}, {1, 6}}),
		},
	} {
		got := SquarePlus(c.l, c.alpha, c.beta)
		if !sameBits(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
		if !sameBits(got, squarePlusDense(c.l, c.alpha, c.beta)) {
			t.Errorf("%s: differs from the dense definition", c.name)
		}
	}
}

func TestMulTridiagSquare(t *testing.T) {
	// (tridiag)^2 is the pentadiagonal 1D biharmonic [1 -4 6 -4 1]
	// (with boundary rows clipped).
	a := tridiag(8)
	c := SquarePlus(a, 1, 0)
	if got := c.At(4, 4); got != 6 {
		t.Errorf("center = %g, want 6", got)
	}
	if got := c.At(4, 3); got != -4 {
		t.Errorf("off1 = %g, want -4", got)
	}
	if got := c.At(4, 6); got != 1 {
		t.Errorf("off2 = %g, want 1", got)
	}
	if !c.IsSymmetric(1e-14) {
		t.Error("square of symmetric matrix must be symmetric")
	}
}

// Property: SquarePlus(A, alpha, beta)·x equals alpha·A(Ax) + beta·Ax.
func TestQuickMulAssociatesWithMulVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		a := randomSym(n, 0.3, rng)
		alpha, beta := rng.Float64(), rng.Float64()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, n)
		aax := make([]float64, n)
		a.MulVec(x, ax)
		a.MulVec(ax, aax)
		y := make([]float64, n)
		SquarePlus(a, alpha, beta).MulVec(x, y)
		for i := range y {
			want := alpha*aax[i] + beta*ax[i]
			if math.Abs(y[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
