// Property tests for the kernels and the format conversion: every kernel
// must be bit-identical to a reference loop written out here, the fused
// ResidualNorm2 must equal Residual followed by √SumSquares exactly, and
// ToCSR must reproduce refToCSR, the documented semantics written out, bit
// for bit. External test package so FEM matrices from internal/problem can
// be used without an import cycle.
package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// testMatrices returns the named matrix set of the issue: random (with
// duplicate and zero insertions), tridiagonal (large enough to exercise
// multi-block reductions), and FEM.
func testMatrices(tb testing.TB) map[string]*sparse.CSR {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))

	tri := sparse.NewCOO(50000, 3*50000)
	for i := 0; i < tri.N; i++ {
		tri.Add(i, i, 2)
		if i > 0 {
			tri.Add(i, i-1, -1)
		}
		if i < tri.N-1 {
			tri.Add(i, i+1, -1)
		}
	}

	rnd := sparse.NewCOO(3000, 12*3000)
	for i := 0; i < rnd.N; i++ {
		rnd.Add(i, i, 4+rng.Float64())
		for e := 0; e < 8; e++ {
			j := rng.Intn(rnd.N)
			rnd.Add(i, j, rng.NormFloat64())
		}
		// Duplicates and explicit zeros, to exercise insertion-order
		// summation and the zero-drop rule.
		rnd.Add(i, rng.Intn(rnd.N), 0)
		j := rng.Intn(rnd.N)
		v := rng.NormFloat64()
		rnd.Add(i, j, v)
		rnd.Add(i, j, -v) // sums to exactly zero: dropped unless diagonal
	}

	return map[string]*sparse.CSR{
		"tridiag50k": tri.ToCSR(),
		"random3k":   rnd.ToCSR(),
		"fem150":     problem.FEM2D(150, 0.35, 7),
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// refMulVecDense is an order-independent correctness reference (compared
// with tolerance, not bitwise).
func refMulVec(a *sparse.CSR, x []float64) []float64 {
	y := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		s := 0.0
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
	return y
}

// sumSquaresRef is SumSquares' reduction written out: ⌈n/16384⌉ blocks
// (at most 64) of near-equal length, each summed in ascending i, the block
// sums added in block order. TestFusedResidualNormExact and the results/
// figures depend on this grouping.
func sumSquaresRef(x []float64) float64 {
	n := len(x)
	nb := min(max(1, (n+16383)/16384), 64)
	sum := 0.0
	for b := range nb {
		s := 0.0
		for _, v := range x[b*n/nb : (b+1)*n/nb] {
			s += v * v
		}
		sum += s
	}
	return sum
}

// TestKernelsBitIdenticalAcrossWorkers: the kernels run on the calling
// goroutine, so no width can change them; each reproduces its reference
// loop (mulRef, residRef, sumSquaresRef) bit for bit.
func TestKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	mats := testMatrices(t)
	rng := rand.New(rand.NewSource(99))
	for name, a := range mats {
		x := randVec(rng, a.N)
		b := randVec(rng, a.N)

		refY := make([]float64, a.N)
		mulRef(a, x, refY)
		refR := make([]float64, a.N)
		residRef(a, b, x, refR)
		refSS := sumSquaresRef(refR)
		refNorm := math.Sqrt(refSS)

		y := make([]float64, a.N)
		a.MulVec(x, y)
		r := make([]float64, a.N)
		a.Residual(b, x, r)
		rn := make([]float64, a.N)
		norm := a.ResidualNorm2(b, x, rn)
		ss := sparse.SumSquares(r)
		for i := range y {
			if y[i] != refY[i] {
				t.Fatalf("%s: MulVec[%d] = %x, want %x", name, i, y[i], refY[i])
			}
			if r[i] != refR[i] {
				t.Fatalf("%s: Residual[%d] = %x, want %x", name, i, r[i], refR[i])
			}
			if rn[i] != refR[i] {
				t.Fatalf("%s: ResidualNorm2 r[%d] = %x, want %x", name, i, rn[i], refR[i])
			}
		}
		if norm != refNorm {
			t.Fatalf("%s: ResidualNorm2 = %x, want %x", name, norm, refNorm)
		}
		if ss != refSS {
			t.Fatalf("%s: SumSquares = %x, want %x", name, ss, refSS)
		}
	}
}

func TestFusedResidualNormExact(t *testing.T) {
	mats := testMatrices(t)
	rng := rand.New(rand.NewSource(3))
	for name, a := range mats {
		x := randVec(rng, a.N)
		b := randVec(rng, a.N)
		r1 := make([]float64, a.N)
		a.Residual(b, x, r1)
		want := math.Sqrt(sparse.SumSquares(r1))
		r2 := make([]float64, a.N)
		got := a.ResidualNorm2(b, x, r2)
		if got != want {
			t.Errorf("%s: ResidualNorm2 = %x, √SumSquares(Residual) = %x", name, got, want)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("%s: r[%d] differs: %x vs %x", name, i, r1[i], r2[i])
			}
		}
	}
}

func TestKernelsCorrectness(t *testing.T) {
	mats := testMatrices(t)
	rng := rand.New(rand.NewSource(5))
	for name, a := range mats {
		x := randVec(rng, a.N)
		b := randVec(rng, a.N)
		want := refMulVec(a, x)
		y := make([]float64, a.N)
		a.MulVec(x, y)
		r := make([]float64, a.N)
		norm := a.ResidualNorm2(b, x, r)
		nsq := 0.0
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: MulVec[%d] = %g, want %g", name, i, y[i], want[i])
			}
			d := b[i] - want[i]
			if math.Abs(r[i]-d) > 1e-9*(1+math.Abs(d)) {
				t.Fatalf("%s: Residual[%d] = %g, want %g", name, i, r[i], d)
			}
			nsq += d * d
		}
		if math.Abs(norm-math.Sqrt(nsq)) > 1e-9*(1+math.Sqrt(nsq)) {
			t.Errorf("%s: ResidualNorm2 = %g, want %g", name, norm, math.Sqrt(nsq))
		}
	}
}

// mulRef and residRef are MulVec's and Residual's row loops as they were
// written before rowDot cut each row into local slices (DESIGN.md §10, "Kernel form"):
// every operand indexed through a on every nonzero. Compared bitwise.
func mulRef(a *sparse.CSR, x, y []float64) {
	for i := 0; i < a.N; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.Col[k]]
		}
		y[i] = sum
	}
}

func residRef(a *sparse.CSR, b, x, r []float64) {
	for i := 0; i < a.N; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.Col[k]]
		}
		r[i] = b[i] - sum
	}
}

// TestGatherKernelsMatchReference: MulVec, Residual and ResidualNorm2
// reproduce the reference loops bit for bit, on ordinary
// vectors and on vectors with exact zeros, −0, denormals, ±Inf and NaN.
func TestGatherKernelsMatchReference(t *testing.T) {
	mats := testMatrices(t)
	mats["empty"] = sparse.NewCOO(0, 0).ToCSR()
	rng := rand.New(rand.NewSource(17))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for name, a := range mats {
		plain := randVec(rng, a.N)
		odd := randVec(rng, a.N)
		for i := range odd {
			if rng.Intn(4) == 0 {
				odd[i] = specials[rng.Intn(len(specials))]
			}
		}
		b := randVec(rng, a.N)
		for xname, x := range map[string][]float64{"plain": plain, "special": odd} {
			wantY, wantR := make([]float64, a.N), make([]float64, a.N)
			mulRef(a, x, wantY)
			residRef(a, b, x, wantR)
			wantNorm := math.Sqrt(sparse.SumSquares(wantR))
			y, r, rn := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
			a.MulVec(x, y)
			a.Residual(b, x, r)
			norm := a.ResidualNorm2(b, x, rn)
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("%s/%s: MulVec[%d] = %x, reference %x", name, xname, i, y[i], wantY[i])
				}
				if math.Float64bits(r[i]) != math.Float64bits(wantR[i]) {
					t.Fatalf("%s/%s: Residual[%d] = %x, reference %x", name, xname, i, r[i], wantR[i])
				}
				if math.Float64bits(rn[i]) != math.Float64bits(wantR[i]) {
					t.Fatalf("%s/%s: ResidualNorm2 r[%d] = %x, reference %x", name, xname, i, rn[i], wantR[i])
				}
			}
			if math.Float64bits(norm) != math.Float64bits(wantNorm) {
				t.Fatalf("%s/%s: ResidualNorm2 = %x, √SumSquares of the reference residual %x", name, xname, norm, wantNorm)
			}
		}
	}
}

// refToCSR accumulates duplicates per (row, col) in insertion order — the
// documented ToCSR semantics — then applies the zero-drop rule. Compared
// bitwise.
func refToCSR(c *sparse.COO) *sparse.CSR {
	type ent struct {
		col int32
		val float64
	}
	rows := make([][]ent, c.N)
	for e := range c.Rows {
		i, j, v := c.Rows[e], c.Cols[e], c.Vals[e]
		found := false
		for k := range rows[i] {
			if rows[i][k].col == j {
				rows[i][k].val += v
				found = true
				break
			}
		}
		if !found {
			rows[i] = append(rows[i], ent{j, v})
		}
	}
	a := &sparse.CSR{N: c.N, RowPtr: make([]int32, c.N+1)}
	for i, row := range rows {
		// insertion sort by column
		for p := 1; p < len(row); p++ {
			e := row[p]
			q := p - 1
			for q >= 0 && row[q].col > e.col {
				row[q+1] = row[q]
				q--
			}
			row[q+1] = e
		}
		for _, e := range row {
			if e.val != 0 || int(e.col) == i {
				a.Col = append(a.Col, e.col)
				a.Val = append(a.Val, e.val)
			}
		}
		a.RowPtr[i+1] = int32(len(a.Col))
	}
	return a
}

func csrEqualExact(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.N != want.N || len(got.Col) != len(want.Col) {
		t.Fatalf("%s: shape mismatch: n=%d nnz=%d, want n=%d nnz=%d", name, got.N, len(got.Col), want.N, len(want.Col))
	}
	for i := range got.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range got.Col {
		if got.Col[k] != want.Col[k] || got.Val[k] != want.Val[k] {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", name, k, got.Col[k], got.Val[k], want.Col[k], want.Val[k])
		}
	}
}

// randomCOO builds a builder with duplicates, zeros, and cancelling pairs.
func randomCOO(rng *rand.Rand, n, epr int) *sparse.COO {
	c := sparse.NewCOO(n, epr*n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+rng.Float64())
		for e := 0; e < epr; e++ {
			j := rng.Intn(n)
			v := rng.NormFloat64()
			c.Add(i, j, v)
			switch rng.Intn(4) {
			case 0:
				c.Add(i, j, rng.NormFloat64()) // duplicate
			case 1:
				c.Add(i, j, -v) // cancels to exactly zero
			case 2:
				c.Add(i, rng.Intn(n), 0) // explicit zero
			}
		}
	}
	return c
}

// TestToCSRMatchesReferenceAcrossWorkers: ToCSR runs on the calling
// goroutine, so one width reaches all of it; it reproduces refToCSR bit
// for bit on a small and a big builder (200 000 entries) with duplicates,
// explicit zeros and cancelling pairs, and returns exact-size arrays.
func TestToCSRMatchesReferenceAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	small := randomCOO(rng, 200, 6)
	big := randomCOO(rng, 20000, 10)
	for name, c := range map[string]*sparse.COO{"small": small, "big": big} {
		got := c.ToCSR()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: invalid CSR: %v", name, err)
		}
		csrEqualExact(t, name, got, refToCSR(c))
		if cap(got.Col) != len(got.Col) || cap(got.Val) != len(got.Val) {
			t.Errorf("%s: Col/Val capacity %d/%d, length %d", name, cap(got.Col), cap(got.Val), len(got.Col))
		}
	}
}

func TestDiagLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, a := range testMatrices(t) {
		d := a.Diag()
		for i := 0; i < a.N; i++ {
			if want := a.At(i, i); d[i] != want {
				t.Fatalf("%s: Diag[%d] = %g, want %g", name, i, d[i], want)
			}
		}
		_ = rng
	}
	// A matrix with missing diagonal entries.
	c := sparse.NewCOO(5, 8)
	c.Add(0, 1, 1)
	c.Add(1, 1, 3)
	c.Add(2, 4, 2)
	c.Add(4, 0, 1)
	a := c.ToCSR()
	want := []float64{0, 3, 0, 0, 0}
	for i, v := range a.Diag() {
		if v != want[i] {
			t.Fatalf("Diag[%d] = %g, want %g", i, v, want[i])
		}
	}
}
