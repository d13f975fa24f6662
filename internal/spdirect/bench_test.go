package spdirect_test

import (
	"runtime"
	"sync"
	"testing"

	"southwell/internal/dense"
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
		f, err := spdirect.Factorize(a.N, widen(a.RowPtr), widen(a.Col), a.Val)
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
// one-time Analyze and Factorize, then the steady-state Refactor and
// SolveWith. allocs_op on both is asserted by TestLDLAllocGate;
// ns_op demonstrates the sparse win over BenchmarkDenseLU.
func BenchmarkLDL(b *testing.B) {
	a, f, rhs, x := benchSetup(b)
	rowPtr, col := widen(a.RowPtr), widen(a.Col)
	b.Run("Analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spdirect.Analyze(a.N, rowPtr, col); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Factorize", func(b *testing.B) {
		sym, err := spdirect.Analyze(a.N, rowPtr, col)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sym.Factorize(a.Val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Refactor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f.Refactor(a.Val); err != nil {
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

// BenchmarkDenseLU is the dense baseline on the same 4356-row block: what
// the old LocalDirect backend paid per block. Factor is O(n³) and takes
// tens of seconds at this size, so this benchmark is excluded from `make
// alloc-gates` (which filters on BenchmarkLDL); run it explicitly to
// reproduce the ~220x comparison quoted in DESIGN.md §10.
func BenchmarkDenseLU(b *testing.B) {
	a, _, rhs, x := benchSetup(b)
	dm := denseFromCSR(a)
	var lu *dense.LU
	b.Run("Factor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if lu, err = dense.FactorLU(dm); err != nil {
				b.Fatal(err)
			}
		}
	})
	if lu == nil {
		var err error
		if lu, err = dense.FactorLU(dm); err != nil {
			b.Fatal(err)
		}
	}
	y := make([]float64, a.N)
	b.Run("Solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lu.SolveWith(rhs, x, y)
		}
	})
}

// TestLDLAllocGate is the machine-independent regression gate: the
// steady-state operations of a cached factorization — Refactor (new
// values, fixed pattern) and SolveWith — must allocate nothing, and the
// one-time Analyze a fixed number of arrays whatever the structure: at most 20
// mallocs, and bytes linear in n + nnz on a 32 000-row diagonal block, where
// every row is its own component (a visited array per pseudo-peripheral
// search made that block 1 GB and half a second).
func TestLDLAllocGate(t *testing.T) {
	a := problem.Poisson2D(40, 40) // 1600 rows: big enough to be honest
	rowPtr, col := widen(a.RowPtr), widen(a.Col)
	f, err := spdirect.Factorize(a.N, rowPtr, col, a.Val)
	if err != nil {
		t.Fatal(err)
	}
	b, x, y := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) / 11
	}
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Refactor", func() {
			if err := f.Refactor(a.Val); err != nil {
				t.Fatal(err)
			}
		}},
		{"SolveWith", func() { f.SolveWith(b, x, y) }},
	} {
		op.f() // warm once outside the measurement
		if got := testing.AllocsPerRun(20, op.f); got != 0 {
			t.Errorf("%s allocates %.1f/op in steady state, want 0", op.name, got)
		}
	}

	const maxAnalyzeMallocs, analyzeBytesPerEntry = 20, 96
	const nDiag = 32000
	diagPtr, diagCol := make([]int, nDiag+1), make([]int, nDiag)
	for i := range diagCol {
		diagPtr[i+1], diagCol[i] = i+1, i
	}
	for _, c := range []struct {
		name        string
		n           int
		rowPtr, col []int
	}{
		{"poisson2d-40", a.N, rowPtr, col},
		{"diagonal-32000", nDiag, diagPtr, diagCol},
	} {
		analyze := func() {
			if _, err := spdirect.Analyze(c.n, c.rowPtr, c.col); err != nil {
				t.Fatal(err)
			}
		}
		mallocs := testing.AllocsPerRun(5, analyze)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		analyze()
		runtime.ReadMemStats(&m1)
		bytes := m1.TotalAlloc - m0.TotalAlloc
		maxBytes := uint64(analyzeBytesPerEntry * (c.n + len(c.col)))
		t.Logf("Analyze(%s): %.0f mallocs, %d bytes (ceiling %d, %d)", c.name, mallocs, bytes, maxAnalyzeMallocs, maxBytes)
		if mallocs > maxAnalyzeMallocs || bytes > maxBytes {
			t.Errorf("Analyze(%s): %.0f mallocs, %d bytes; ceiling %d mallocs, %d bytes", c.name, mallocs, bytes, maxAnalyzeMallocs, maxBytes)
		}
	}
}
