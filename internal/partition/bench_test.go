package partition

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// TestPartitionAllocCeiling pins the partitioner's heap traffic on both of
// its paths: Poisson2D(256, 256) at k = 2048 (32 rows per part) is
// partitioned by recursive bisection alone, Flan_1565 at k = 256 (the
// suite256 shape, 69 rows per part) by the coarsen-once front end. Either
// call allocates the graph, the output, the global→local index and the
// first chunk of each workspace stack, in 15–16 mallocs; the bytes are
// 15 726 208 and 15 900 272. The byte ceilings are those plus 10 %, so a
// second chunk fails either input. The malloc ceiling is 20 for the first
// input, and 17 for Flan, whose front end has two coarse levels and so
// three refined ones: an allocation per level there adds three mallocs
// but too few bytes to show. (The map-and-append implementation did
// 1 531 722 mallocs / 573 MB on the first input.) MemStats counts the
// whole process, and other goroutines can only add to a reading, so the
// test keeps the least of three calls.
func TestPartitionAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		a       *sparse.CSR
		k       int
		mallocs uint64
		bytes   float64
	}{
		{"Poisson2D(256,256)", scaled(t, problem.Poisson2D(256, 256)), 2048, 20, 15_726_208},
		{"Flan_1565", flan(t), 256, 17, 15_900_272},
	} {
		mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			part := Partition(c.a, c.k, Options{Seed: 1})
			runtime.ReadMemStats(&m1)
			runtime.KeepAlive(part)
			mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("Partition(%s, %d): %d mallocs, %d bytes", c.name, c.k, mallocs, bytes)
		if maxBytes := c.bytes * 1.1; mallocs > c.mallocs || float64(bytes) > maxBytes {
			t.Errorf("%s: %d mallocs, %d bytes; ceiling %d mallocs, %.0f bytes", c.name, mallocs, bytes, c.mallocs, maxBytes)
		}
	}
}

// BenchmarkPartition times the partitioner on the end-to-end benchmark's
// four set-ups (benchmarks/e2e/workloads.go).
func BenchmarkPartition(b *testing.B) {
	fl := flan(b)
	pois := scaled(b, problem.Poisson2D(256, 256))
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		k    int
	}{
		{"suite256", fl, 256},
		{"wide4k", fl, 4096},
		{"pointload2k", pois, 2048},
		{"direct64", fl, 64},
	} {
		b.Run(fmt.Sprintf("%s/k=%d", c.name, c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Partition(c.a, c.k, Options{Seed: 1})
			}
		})
	}
}
