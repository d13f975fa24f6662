package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// tridiag returns the n-by-n [-1 2 -1] matrix.
func tridiag(n int) *CSR {
	c := NewCOO(n, 3*n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// randomSym returns a random symmetric diagonally dominant matrix.
func randomSym(n int, density float64, rng *rand.Rand) *CSR {
	c := NewCOO(n, int(float64(n*n)*density)+n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				c.AddSym(i, j, v)
				diag[i] += math.Abs(v)
				diag[j] += math.Abs(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, diag[i]+1)
	}
	return c.ToCSR()
}

func TestCSRValidate(t *testing.T) {
	a := tridiag(10)
	if err := a.Validate(); err != nil {
		t.Fatalf("tridiag(10) invalid: %v", err)
	}
	if a.NNZ() != 28 {
		t.Errorf("tridiag(10) nnz = %d, want 28", a.NNZ())
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*CSR)
	}{
		{"bad rowptr0", func(a *CSR) { a.RowPtr[0] = 1 }},
		{"nonmonotone rowptr", func(a *CSR) { a.RowPtr[3] = a.RowPtr[4] + 1 }},
		{"col out of range", func(a *CSR) { a.Col[0] = int32(a.N) }},
		{"negative col", func(a *CSR) { a.Col[0] = -1 }},
		{"unsorted cols", func(a *CSR) { a.Col[1], a.Col[2] = a.Col[2], a.Col[1] }},
		{"nan value", func(a *CSR) { a.Val[0] = math.NaN() }},
		{"nnz mismatch", func(a *CSR) { a.RowPtr[a.N]++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tridiag(8)
			tc.corrupt(a)
			if err := a.Validate(); err == nil {
				t.Error("Validate accepted corrupt matrix")
			}
		})
	}
}

func TestAt(t *testing.T) {
	a := tridiag(5)
	if got := a.At(2, 2); got != 2 {
		t.Errorf("At(2,2) = %g, want 2", got)
	}
	if got := a.At(2, 3); got != -1 {
		t.Errorf("At(2,3) = %g, want -1", got)
	}
	if got := a.At(0, 4); got != 0 {
		t.Errorf("At(0,4) = %g, want 0", got)
	}
}

func TestMulVec(t *testing.T) {
	a := tridiag(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(x, y)
	want := []float64{0, 0, 0, 5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestResidual(t *testing.T) {
	a := tridiag(6)
	x := []float64{1, 1, 1, 1, 1, 1}
	b := make([]float64, 6)
	r := make([]float64, 6)
	a.Residual(b, x, r)
	// A*ones = [1 0 0 0 0 1], so r = -that.
	want := []float64{-1, 0, 0, 0, 0, -1}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-14 {
			t.Errorf("r[%d] = %g, want %g", i, r[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSym(30, 0.2, rng)
	tt := a.Transpose().Transpose()
	if err := tt.Validate(); err != nil {
		t.Fatalf("transpose^2 invalid: %v", err)
	}
	for k := range a.Col {
		if a.Col[k] != tt.Col[k] || a.Val[k] != tt.Val[k] {
			t.Fatalf("transpose not an involution at entry %d", k)
		}
	}
}

func TestSymmetryChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSym(25, 0.3, rng)
	if !a.IsStructurallySymmetric() {
		t.Error("randomSym not structurally symmetric")
	}
	if !a.IsSymmetric(0) {
		t.Error("randomSym not numerically symmetric")
	}
	// Break symmetry numerically.
	b := a.Clone()
	for k := range b.Col {
		if b.Col[k] != 0 {
			continue
		}
		// first off-diagonal in column 0
		if int(b.RowPtr[0+1]) <= k { // entry not in row 0, so (i,0) with i>0
			b.Val[k] += 0.5
			break
		}
	}
	if b.IsSymmetric(1e-12) {
		t.Error("IsSymmetric failed to detect asymmetry")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(3, 8)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 2, 5)
	c.Add(1, 2, -5) // cancels to zero: dropped
	c.Add(2, 2, 4)
	a := c.ToCSR()
	if got := a.At(0, 0); got != 3 {
		t.Errorf("duplicate sum = %g, want 3", got)
	}
	if got := a.At(1, 2); got != 0 {
		t.Errorf("cancelled entry = %g, want 0", got)
	}
	cols, _ := a.Row(1)
	if len(cols) != 0 {
		t.Errorf("cancelled entry not dropped: row 1 has %d entries", len(cols))
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("invalid after dedup: %v", err)
	}
}

func TestCOOKeepsZeroDiagonal(t *testing.T) {
	c := NewCOO(2, 4)
	c.Add(0, 0, 0)
	c.Add(1, 1, 1)
	a := c.ToCSR()
	cols, _ := a.Row(0)
	if len(cols) != 1 || cols[0] != 0 {
		t.Error("explicit zero diagonal should be kept")
	}
}

func TestScaleUnitDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSym(40, 0.15, rng)
	s, err := Scale(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N; i++ {
		if d := a.At(i, i); math.Abs(d-1) > 1e-12 {
			t.Fatalf("diagonal %d = %g after Scale", i, d)
		}
	}
	if !a.IsSymmetric(1e-12) {
		t.Error("Scale broke symmetry")
	}
	if len(s) != a.N {
		t.Errorf("scale vector length %d", len(s))
	}
}

func TestScaleRejectsBadDiagonal(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 0, 1)
	c.Add(1, 1, -2)
	a := c.ToCSR()
	if _, err := Scale(a); err == nil {
		t.Error("Scale accepted negative diagonal")
	}
}

func TestScaleSolutionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSym(20, 0.3, rng)
	orig := a.Clone()
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	orig.MulVec(xTrue, b)

	s, err := Scale(a)
	if err != nil {
		t.Fatal(err)
	}
	bs := CopyVec(b)
	for i := range bs {
		bs[i] *= s[i] // the right-hand side scales with the rows: b <- S b
	}
	// Scaled system solution is y = S^{-1} x, i.e. y_i = x_i / s_i.
	y := make([]float64, a.N)
	for i := range y {
		y[i] = xTrue[i] / s[i]
	}
	r := make([]float64, a.N)
	a.Residual(bs, y, r)
	if n := Norm2(r); n > 1e-10 {
		t.Errorf("scaled system residual %g", n)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %g", Norm2(x))
	}
	y := []float64{1, 1}
	if Dot(x, y) != -1 {
		t.Errorf("Dot = %g", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != -7 {
		t.Errorf("Axpy = %v", y)
	}
	z := CopyVec(y)
	z[0] = 0
	if y[0] != 7 {
		t.Error("CopyVec aliases")
	}
}

func TestNormalizeResidual(t *testing.T) {
	a := tridiag(16)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	NormalizeResidual(a, b, x)
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	if n := Norm2(r); math.Abs(n-1) > 1e-12 {
		t.Errorf("normalized residual norm = %g, want 1", n)
	}
	// Zero residual case: returns 0, leaves inputs alone.
	zero := make([]float64, a.N)
	if got := NormalizeResidual(a, zero, zero); got != 0 {
		t.Errorf("zero-residual normalize returned %g", got)
	}
}

func TestNeighborsAndDegrees(t *testing.T) {
	a := tridiag(5)
	cols, _ := a.Row(2)
	if len(cols) != 3 || cols[0] != 1 || cols[1] != 2 || cols[2] != 3 {
		t.Errorf("Row(2) columns = %v, want [1 2 3]", cols)
	}
}

// Property: for random symmetric matrices, MulVec agrees with the transpose,
// and Scale always yields a unit diagonal while preserving symmetry.
func TestQuickSymmetricScaleProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		a := randomSym(n, 0.1+0.4*rng.Float64(), rng)
		if err := a.Validate(); err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		a.MulVec(x, y1)
		a.Transpose().MulVec(x, y2)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-10 {
				return false
			}
		}
		if _, err := Scale(a); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(a.At(i, i)-1) > 1e-12 {
				return false
			}
		}
		return a.IsSymmetric(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: COO->CSR conversion is invariant under permutation of insertions.
func TestQuickCOOOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		type ent struct {
			i, j int
			v    float64
		}
		var ents []ent
		for i := 0; i < n; i++ {
			ents = append(ents, ent{i, i, 1 + rng.Float64()})
		}
		m := rng.Intn(4 * n)
		for k := 0; k < m; k++ {
			ents = append(ents, ent{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		build := func(order []int) *CSR {
			c := NewCOO(n, len(order))
			for _, idx := range order {
				c.Add(ents[idx].i, ents[idx].j, ents[idx].v)
			}
			return c.ToCSR()
		}
		ord1 := rng.Perm(len(ents))
		ord2 := rng.Perm(len(ents))
		a1, a2 := build(ord1), build(ord2)
		if a1.NNZ() != a2.NNZ() {
			return false
		}
		for k := range a1.Col {
			if a1.Col[k] != a2.Col[k] || math.Abs(a1.Val[k]-a2.Val[k]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// wantPanic runs f and fails unless it panics with an error reading want.
func wantPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		err, _ := recover().(error)
		if err == nil || err.Error() != want {
			t.Errorf("%s: panic %v, want %q", name, err, want)
		}
	}()
	f()
}

// TestMatrixRejectsIndexOverflow: row pointers and columns are int32, so a
// dimension or entry count of 2³¹ is refused by every constructor before it
// allocates, and 2³¹−1 is accepted.
func TestMatrixRejectsIndexOverflow(t *testing.T) {
	if err := checkSize(MaxIndex, MaxIndex); err != nil {
		t.Errorf("checkSize(2³¹−1, 2³¹−1) = %v, want nil", err)
	}
	const nBig = "sparse: n = 2147483648 outside the 32-bit index range [0, 2147483647]"
	const nnzBig = "sparse: nnz = 2147483648 outside the 32-bit index range [0, 2147483647]"
	for _, c := range []struct {
		n, nnz int
		want   string
	}{
		{MaxIndex + 1, 0, nBig},
		{0, MaxIndex + 1, nnzBig},
		{-1, 0, "sparse: n = -1 outside the 32-bit index range [0, 2147483647]"},
		{3, -2, "sparse: nnz = -2 outside the 32-bit index range [0, 2147483647]"},
	} {
		if err := checkSize(c.n, c.nnz); err == nil || err.Error() != c.want {
			t.Errorf("checkSize(%d, %d) = %v, want %q", c.n, c.nnz, err, c.want)
		}
	}

	NewCOO(MaxIndex, 0) // accepted: nothing of size n is allocated
	huge := &CSR{N: MaxIndex + 1}
	if err := huge.Validate(); err == nil || err.Error() != nBig {
		t.Errorf("Validate at n = 2³¹: %v", err)
	}
	wantPanic(t, "NewCOO(2³¹, 0)", nBig, func() { NewCOO(MaxIndex+1, 0) })
	wantPanic(t, "NewCOO(2, 2³¹)", nnzBig, func() { NewCOO(2, MaxIndex+1) })
	wantPanic(t, "ToCSR", nBig, func() { (&COO{N: MaxIndex + 1}).ToCSR() })
	wantPanic(t, "Clone", nBig, func() { huge.Clone() })
	wantPanic(t, "Transpose", nBig, func() { huge.Transpose() })
	wantPanic(t, "Mul", nBig, func() { Mul(huge, huge) })
	wantPanic(t, "Add", nBig, func() { Add(huge, huge, 1, 1) })

	for _, c := range []struct{ size, want string }{
		{"2147483648 2147483648 0", nBig},
		{"2 2 2147483648", nnzBig},
	} {
		in := "%%MatrixMarket matrix coordinate real general\n" + c.size + "\n"
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil || err.Error() != c.want {
			t.Errorf("ReadMatrixMarket(%q): %v", c.size, err)
		}
	}
}
