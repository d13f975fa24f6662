package problem

import (
	"math"
	"runtime"
	"testing"

	"southwell/internal/sparse"
)

// TestGeneratorAllocCeiling pins what one generation allocates, at most
// the measured bytes + 2 % and the measured mallocs: a stencil is written
// straight into its exact-size CSR arrays (the matrix and its three
// arrays, 4 mallocs), and a plate mix adds one SquarePlus pass (its
// scratch, the matrix and its arrays) to its stencil. Before either was
// written straight into CSR — a COO list, COO.ToCSR, sparse.Mul and
// sparse.Add — Poisson2D(256,256) allocated 20 326 624 bytes in 69
// mallocs and Flan_1565 17 442 488 in 55. FEM2D sums its elements through
// one pre-sized COO and ToCSR's one counting sort (BenchmarkSetup's 100k
// shape); assembled in entry-balanced blocks, each with its own COO, and
// converted in ToCSR's shards, it made 253 mallocs at width 1.
func TestGeneratorAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	flan, _ := SuiteByName("Flan_1565")
	for _, c := range []struct {
		name    string
		gen     func() *sparse.CSR
		mallocs uint64
		bytes   uint64
	}{
		{"Poisson2D(256,256)", func() *sparse.CSR { return Poisson2D(256, 256) }, 4, 4_194_384},
		{"Flan_1565", flan.Gen, 11, 6_824_096},
		{"FEM2D(318)", func() *sparse.CSR { return FEM2D(318, 0.35, 1) }, 15, 62_076_368},
	} {
		c.gen() // outside the measurement: first-use costs of the runtime
		// The counters are process-wide, so a runtime allocation can land
		// inside one reading; the least of three is the generator's own.
		mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			a := c.gen()
			runtime.ReadMemStats(&m1)
			runtime.KeepAlive(a)
			mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("%s: %d mallocs, %d bytes", c.name, mallocs, bytes)
		if mallocs > c.mallocs || bytes > c.bytes+c.bytes/50 {
			t.Errorf("%s: generation made %d mallocs / %d bytes, want ≤ %d / ≤ %d (+2%%)", c.name, mallocs, bytes, c.mallocs, c.bytes)
		}
	}
}
