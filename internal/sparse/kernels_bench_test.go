package sparse_test

import (
	"sync"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// benchMat lazily builds the 100k-row FEM matrix of the acceptance
// criteria (m=318 gives (m-1)² = 100489 interior nodes) plus operand
// vectors, shared across sub-benchmarks.
var benchMat struct {
	once       sync.Once
	a          *sparse.CSR
	x, y, b, r []float64
}

func benchSystem() (*sparse.CSR, []float64, []float64, []float64, []float64) {
	benchMat.once.Do(func() {
		a := problem.FEM2D(318, 0.35, 1)
		benchMat.a = a
		benchMat.x = make([]float64, a.N)
		benchMat.y = make([]float64, a.N)
		benchMat.b = make([]float64, a.N)
		benchMat.r = make([]float64, a.N)
		for i := 0; i < a.N; i++ {
			benchMat.x[i] = float64(i%97) / 97
			benchMat.b[i] = float64(i%31) / 31
		}
	})
	return benchMat.a, benchMat.x, benchMat.y, benchMat.b, benchMat.r
}

// BenchmarkKernels measures the steady-state numerical kernels on the
// 100k-row FEM matrix. They run on the calling goroutine, so the reading
// does not depend on -cpu; allocs_op is asserted by TestKernelAllocGate.
func BenchmarkKernels(b *testing.B) {
	a, x, y, rhs, r := benchSystem()
	kernels := []struct {
		name string
		f    func()
	}{
		{"MulVec", func() { a.MulVec(x, y) }},
		{"Residual", func() { a.Residual(rhs, x, r) }},
		{"ResidualNorm2", func() { _ = a.ResidualNorm2(rhs, x, r) }},
		{"SumSquares", func() { _ = sparse.SumSquares(r) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.f()
			}
		})
	}
}

// BenchmarkSetup measures FEM assembly on the 100k-row shape: problem
// generation into one COO and its conversion to CSR, both on the calling
// goroutine (TestGeneratorAllocCeiling pins its allocations).
func BenchmarkSetup(b *testing.B) {
	b.Run("FEM2D-100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = problem.FEM2D(318, 0.35, 1)
		}
	})
}

// TestKernelAllocGate is the machine-independent regression gate: each
// steady-state kernel must allocate nothing. The matrix is large enough
// that both reductions sum more than one block.
func TestKernelAllocGate(t *testing.T) {
	a := problem.FEM2D(150, 0.35, 1) // 22201 rows: two reduction blocks
	x := make([]float64, a.N)
	rhs := make([]float64, a.N)
	y := make([]float64, a.N)
	r := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%13) / 13
		rhs[i] = float64(i%7) / 7
	}
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"MulVec", func() { a.MulVec(x, y) }},
		{"Residual", func() { a.Residual(rhs, x, r) }},
		{"ResidualNorm2", func() { _ = a.ResidualNorm2(rhs, x, r) }},
		{"SumSquares", func() { _ = sparse.SumSquares(r) }},
	} {
		if got := testing.AllocsPerRun(20, k.f); got != 0 {
			t.Errorf("%s allocates %.1f/op in steady state, want 0", k.name, got)
		}
	}
}
