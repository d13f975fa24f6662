package problem

import (
	"math"
	"testing"
	"testing/quick"

	"southwell/internal/sparse"
)

func TestPoisson2DStructure(t *testing.T) {
	a := Poisson2D(4, 3)
	if a.N != 12 {
		t.Fatalf("n = %d, want 12", a.N)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(0) {
		t.Error("Poisson2D not symmetric")
	}
	// Interior point (1,1) has 4 neighbors; corner (0,0) has 2. Row(i)
	// holds the diagonal too.
	if cols, _ := a.Row(1*4 + 1); len(cols)-1 != 4 {
		t.Errorf("interior degree = %d, want 4", len(cols)-1)
	}
	if cols, _ := a.Row(0); len(cols)-1 != 2 {
		t.Errorf("corner degree = %d, want 2", len(cols)-1)
	}
	if a.At(0, 0) != 4 {
		t.Errorf("diagonal = %g, want 4", a.At(0, 0))
	}
}

// diagonallyDominant reports weak diagonal dominance with nonpositive
// off-diagonals (M-matrix sign pattern).
func diagonallyDominant(a *sparse.CSR) bool {
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, j := range cols {
			if int(j) == i {
				diag = vals[k]
			} else {
				if vals[k] > 0 {
					return false
				}
				off += -vals[k]
			}
		}
		if diag < off-1e-12 {
			return false
		}
	}
	return true
}

func TestPoisson3DIsMMatrix(t *testing.T) {
	a := Poisson3D(5, 4, 3, nil, 1, 1, 1)
	if a.N != 60 {
		t.Fatalf("n = %d", a.N)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(1e-12) {
		t.Error("Poisson3D not symmetric")
	}
	if !diagonallyDominant(a) {
		t.Error("Poisson3D should be an M-matrix")
	}
}

func TestPoisson3DJumpSymmetric(t *testing.T) {
	a := Poisson3D(6, 6, 6, LognormalCoeff(6, 6, 6, 2, 42), 1, 1, 1)
	if !a.IsSymmetric(1e-12) {
		t.Error("harmonic-mean coefficients must give a symmetric matrix")
	}
	if !diagonallyDominant(a) {
		t.Error("variable-coefficient Poisson should be an M-matrix")
	}
}

func TestAniso2D(t *testing.T) {
	a := Aniso2D(5, 5, 0.01)
	if !a.IsSymmetric(1e-12) {
		t.Error("Aniso2D not symmetric")
	}
	// x-neighbors weak, y-neighbors strong.
	if got := a.At(12, 11); got != -0.01 {
		t.Errorf("x coupling = %g", got)
	}
	if got := a.At(12, 7); got != -1 {
		t.Errorf("y coupling = %g", got)
	}
}

func TestQuadrantJump2D(t *testing.T) {
	a := QuadrantJump2D(8, 8, 1000)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(1e-9) {
		t.Error("QuadrantJump2D not symmetric")
	}
}

func TestBiharmonicSpectrumExceedsTwo(t *testing.T) {
	// After unit-diagonal scaling, the biharmonic operator must have
	// spectral radius > 2 (the point-Jacobi divergence condition); the
	// Laplacian must not. Estimate λmax by power iteration.
	powerLambdaMax := func(a *sparse.CSR) float64 {
		x := RandomVec(a.N, 9)
		y := make([]float64, a.N)
		lam := 0.0
		for it := 0; it < 200; it++ {
			a.MulVec(x, y)
			lam = sparse.Norm2(y)
			for i := range x {
				x[i] = y[i] / lam
			}
		}
		return lam
	}
	bih := Biharmonic2D(20, 20)
	if _, err := sparse.Scale(bih); err != nil {
		t.Fatal(err)
	}
	if lam := powerLambdaMax(bih); lam <= 2 {
		t.Errorf("scaled biharmonic λmax = %g, want > 2", lam)
	}
	lap := Poisson2D(20, 20)
	if _, err := sparse.Scale(lap); err != nil {
		t.Fatal(err)
	}
	if lam := powerLambdaMax(lap); lam >= 2+1e-9 {
		t.Errorf("scaled Laplacian λmax = %g, want < 2", lam)
	}
}

func TestBiharmonicHasPositiveOffDiagonals(t *testing.T) {
	a := Biharmonic2D(10, 10)
	found := false
	for i := 0; i < a.N && !found; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if int(j) != i && vals[k] > 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("biharmonic should be a non-M-matrix (positive off-diagonals)")
	}
}

func TestFEM2D(t *testing.T) {
	a := FEM2D(10, 0.3, 1)
	if a.N != 81 {
		t.Fatalf("n = %d, want 81", a.N)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(1e-10) {
		t.Error("FEM stiffness not symmetric")
	}
	// Stiffness matrices of -Δ are positive definite after Dirichlet
	// elimination: check x'Ax > 0 for a few random x.
	for s := int64(0); s < 5; s++ {
		x := RandomVec(a.N, s)
		y := make([]float64, a.N)
		a.MulVec(x, y)
		if q := sparse.Dot(x, y); q <= 0 {
			t.Errorf("seed %d: x'Ax = %g, want > 0", s, q)
		}
	}
}

func TestFEM2DDeterministic(t *testing.T) {
	a := FEM2D(8, 0.3, 7)
	b := FEM2D(8, 0.3, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("FEM2D not deterministic")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] {
			t.Fatal("FEM2D values not deterministic")
		}
	}
}

func TestFig2FEMSize(t *testing.T) {
	a := Fig2FEM()
	if a.N != 3025 {
		t.Errorf("Fig2FEM n = %d, want 3025 (paper: 3081)", a.N)
	}
	if !a.IsSymmetric(1e-9) {
		t.Error("Fig2FEM not symmetric")
	}
}

func TestSuiteBuildsAndScales(t *testing.T) {
	if testing.Short() {
		t.Skip("suite build is slow in -short mode")
	}
	for _, e := range Suite() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			a := e.Build()
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			if a.N < 4000 {
				t.Errorf("n = %d, want >= 4000 for a meaningful distributed run", a.N)
			}
			for i := 0; i < a.N; i += 97 {
				if d := a.At(i, i); math.Abs(d-1) > 1e-12 {
					t.Fatalf("diag[%d] = %g after Build", i, d)
				}
			}
			if !a.IsSymmetric(1e-9) {
				t.Error("suite matrix not symmetric")
			}
		})
	}
}

func TestSuiteHas14EntriesInPaperOrder(t *testing.T) {
	names := SuiteNames()
	want := []string{
		"Flan_1565", "audikw_1", "Serena", "Geo_1438", "Hook_1498",
		"bone010", "ldoor", "boneS10", "Emilia_923", "inline_1",
		"Fault_639", "StocF-1465", "msdoor", "af_5_k101",
	}
	if len(names) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if _, ok := SuiteByName("bone010"); !ok {
		t.Error("SuiteByName failed")
	}
	if _, ok := SuiteByName("nope"); ok {
		t.Error("SuiteByName found nonexistent")
	}
}

func TestZeroBSystem(t *testing.T) {
	a := Poisson2D(10, 10)
	b, x := ZeroBSystem(a, 3)
	for _, v := range b {
		if v != 0 {
			t.Fatal("b not zero")
		}
	}
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	if n := sparse.Norm2(r); math.Abs(n-1) > 1e-12 {
		t.Errorf("‖r0‖ = %g, want 1", n)
	}
}

func TestRandomBSystem(t *testing.T) {
	a := Poisson2D(10, 10)
	b, x := RandomBSystem(a, 3)
	for _, v := range x {
		if v != 0 {
			t.Fatal("x not zero")
		}
	}
	if n := sparse.Norm2(b); math.Abs(n-1) > 1e-12 {
		t.Errorf("‖b‖ = %g, want 1", n)
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	if math.Abs(mean/float64(len(b))) > 1e-12 {
		t.Errorf("b mean = %g, want ~0", mean/float64(len(b)))
	}
}

// Property: every generator yields a valid symmetric matrix for random small
// shapes.
func TestQuickGeneratorsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		nx := 3 + rng.Intn(8)
		ny := 3 + rng.Intn(8)
		nz := 2 + rng.Intn(4)
		mats := []*sparse.CSR{
			Poisson2D(nx, ny),
			Aniso2D(nx, ny, 0.001+rng.Float64()),
			Poisson3D(nx, ny, nz, LognormalCoeff(nx, ny, nz, rng.Float64()*2, seed), 1, 1, 1+rng.Float64()*10),
			QuadrantJump2D(nx, ny, 1+rng.Float64()*1000),
			FEM2D(3+rng.Intn(6), rng.Float64()*0.4, seed),
		}
		for _, a := range mats {
			if a.Validate() != nil || !a.IsSymmetric(1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
