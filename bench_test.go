package southwell_test

import (
	"io"
	"testing"

	"southwell/internal/bench"
	"southwell/internal/dmem"
	"southwell/internal/multigrid"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

// quick is the scaled-down configuration used so `go test -bench=.`
// completes in minutes; cmd/benchtables runs the full configurations.
func quick() bench.Config { return bench.Config{Quick: true, Ranks: 64, Seed: 1} }

// ---- One benchmark per paper table/figure ------------------------------

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig2(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Table2(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Table3(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Table4(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Fig7(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Fig8(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.Fig9(io.Discard, quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Kernel micro-benchmarks -------------------------------------------

func benchMatrix() *sparse.CSR {
	a := problem.Poisson2D(100, 100)
	if _, err := sparse.Scale(a); err != nil {
		panic(err)
	}
	return a
}

func BenchmarkSpMV(b *testing.B) {
	a := benchMatrix()
	x := problem.RandomVec(a.N, 1)
	y := make([]float64, a.N)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkGaussSeidelSweep(b *testing.B) {
	a := benchMatrix()
	for i := 0; i < b.N; i++ {
		bb, x := problem.RandomBSystem(a, 1)
		solvers.GaussSeidel(a, bb, x, solvers.Options{MaxRelax: a.N})
	}
}

func BenchmarkSequentialSouthwellSweep(b *testing.B) {
	a := benchMatrix()
	for i := 0; i < b.N; i++ {
		bb, x := problem.RandomBSystem(a, 1)
		solvers.SequentialSouthwell(a, bb, x, solvers.Options{MaxRelax: a.N})
	}
}

func BenchmarkDistSWScalarSweep(b *testing.B) {
	a := benchMatrix()
	for i := 0; i < b.N; i++ {
		bb, x := problem.RandomBSystem(a, 1)
		solvers.DistributedSouthwell(a, bb, x, solvers.Options{MaxRelax: a.N})
	}
}

func BenchmarkPartition64(b *testing.B) {
	a := benchMatrix()
	for i := 0; i < b.N; i++ {
		partition.Partition(a, 64, partition.Options{Seed: int64(i)})
	}
}

func BenchmarkLayoutBuild(b *testing.B) {
	a := benchMatrix()
	part := partition.Partition(a, 64, partition.Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmem.NewLayout(a, part, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistSWStep(b *testing.B) {
	// Cost of one Distributed Southwell parallel step at 64 ranks.
	a := benchMatrix()
	part := partition.Partition(a, 64, partition.Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := dmem.NewLayout(a, part, 64)
		if err != nil {
			b.Fatal(err)
		}
		s, err := dmem.NewSetup(l, dmem.LocalGS)
		if err != nil {
			b.Fatal(err)
		}
		bb, x := problem.ZeroBSystem(a, 1)
		b.StartTimer()
		dmem.DistributedSouthwell(s, bb, x, dmem.Config{Steps: 10})
	}
}

func BenchmarkVCycleGS(b *testing.B) {
	h, err := multigrid.New(127, multigrid.GaussSeidel{})
	if err != nil {
		b.Fatal(err)
	}
	n := 127 * 127
	bb := problem.RandomVec(n, 1)
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.VCycle(bb, x)
	}
}

func BenchmarkVCycleDistSW(b *testing.B) {
	h, err := multigrid.New(127, multigrid.DistSW{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := 127 * 127
	bb := problem.RandomVec(n, 1)
	x := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.VCycle(bb, x)
	}
}
