package partition

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// TestPartitionAllocCeiling pins the partitioner's heap traffic: one call
// on this input allocates the graph, the output, the global→local index and
// the first chunk of each workspace stack, in 15–16 mallocs and 15 726 208
// bytes. The ceilings are 20 mallocs and those bytes plus 10 %, so a second
// chunk or a per-level allocation fails it. (The map-and-append
// implementation did 1 531 722 mallocs / 573 MB here.) MemStats counts the
// whole process, and other goroutines can only add to a reading, so the
// test keeps the least of three calls.
func TestPartitionAllocCeiling(t *testing.T) {
	const maxMallocs, maxBytes = 20, 15_726_208 * 1.1
	a := scaled(t, problem.Poisson2D(256, 256))
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		part := Partition(a, 2048, Options{Seed: 1})
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(part)
		mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("Partition(Poisson2D(256,256), 2048): %d mallocs, %d bytes", mallocs, bytes)
	if mallocs > maxMallocs || float64(bytes) > maxBytes {
		t.Errorf("%d mallocs, %d bytes; ceiling %d mallocs, %.0f bytes", mallocs, bytes, maxMallocs, float64(maxBytes))
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
