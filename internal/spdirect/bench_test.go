package spdirect_test

import (
	"runtime"
	"sync"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
	"southwell/internal/spdirect"
)

// benchBlock lazily builds the ≥4096-row SPD block of the acceptance
// criteria — a 66×66 5-point Laplacian (4356 rows) stands in for the
// largest per-rank diagonal blocks LocalDirect factors — plus a factored
// copy and operand vectors, shared across sub-benchmarks.
var benchBlock struct {
	once sync.Once
	a    *sparse.CSR
	f    *spdirect.Factor
	b, x []float64
}

func benchSetup(tb testing.TB) (*sparse.CSR, *spdirect.Factor, []float64, []float64) {
	benchBlock.once.Do(func() {
		a := problem.Poisson2D(66, 66)
		f, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val)
		if err != nil {
			panic(err)
		}
		benchBlock.a = a
		benchBlock.f = f
		benchBlock.b = make([]float64, a.N)
		benchBlock.x = make([]float64, a.N)
		for i := range benchBlock.b {
			benchBlock.b[i] = float64(i%17) / 17
		}
	})
	return benchBlock.a, benchBlock.f, benchBlock.b, benchBlock.x
}

// BenchmarkLDL measures the sparse LDLᵀ pipeline on the 4356-row block:
// the one-time Factorize and the steady-state SolveWith. allocs_op of both
// is asserted by TestLDLAllocGate; ns_op demonstrates the sparse win over
// BenchmarkDenseLU (internal/dense).
func BenchmarkLDL(b *testing.B) {
	a, f, rhs, x := benchSetup(b)
	b.Run("Factorize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Solve", func(b *testing.B) {
		y := make([]float64, a.N)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.SolveWith(rhs, x, y)
		}
	})
}

// TestLDLAllocGate is the machine-independent regression gate: SolveWith
// on a cached factorization must allocate nothing, and the one-time
// Factorize a fixed number of arrays whatever the structure: at most 28
// mallocs, and bytes linear in n + nnz + nnz(L), on a 1 600-row Poisson
// block and on a 32 000-row diagonal block, where every row is its own
// component (a visited array per pseudo-peripheral search made that block
// 1 GB and half a second).
func TestLDLAllocGate(t *testing.T) {
	a := problem.Poisson2D(40, 40) // 1600 rows: big enough to be honest
	f, err := spdirect.Factorize(a.RowPtr, a.Col, a.Val)
	if err != nil {
		t.Fatal(err)
	}
	b, x, y := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) / 11
	}
	solve := func() { f.SolveWith(b, x, y) }
	solve() // warm once outside the measurement
	if got := testing.AllocsPerRun(20, solve); got != 0 {
		t.Errorf("SolveWith allocates %.1f/op in steady state, want 0", got)
	}

	const maxFactorizeMallocs, factorizeBytesPerEntry = 28, 96
	const nDiag = 32000
	diag := &sparse.CSR{N: nDiag, RowPtr: make([]int32, nDiag+1), Col: make([]int32, nDiag), Val: make([]float64, nDiag)}
	for i := range diag.Col {
		diag.RowPtr[i+1], diag.Col[i], diag.Val[i] = int32(i+1), int32(i), 1
	}
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d-40", a},
		{"diagonal-32000", diag},
	} {
		var nnzL int
		factorize := func() {
			f, err := spdirect.Factorize(c.a.RowPtr, c.a.Col, c.a.Val)
			if err != nil {
				t.Fatal(err)
			}
			nnzL = len(f.Li)
		}
		mallocs := testing.AllocsPerRun(5, factorize)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		factorize()
		runtime.ReadMemStats(&m1)
		bytes := m1.TotalAlloc - m0.TotalAlloc
		maxBytes := uint64(factorizeBytesPerEntry * (c.a.N + len(c.a.Col) + nnzL))
		t.Logf("Factorize(%s): %.0f mallocs, %d bytes (ceiling %d, %d)", c.name, mallocs, bytes, maxFactorizeMallocs, maxBytes)
		if mallocs > maxFactorizeMallocs || bytes > maxBytes {
			t.Errorf("Factorize(%s): %.0f mallocs, %d bytes; ceiling %d mallocs, %d bytes", c.name, mallocs, bytes, maxFactorizeMallocs, maxBytes)
		}
	}
}
