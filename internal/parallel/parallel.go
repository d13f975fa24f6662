// Package parallel is the deterministic work-splitting layer of the
// repository's set-up (the layout's two passes, the local factorizations,
// FEM assembly and the COO→CSR conversion): one fork-join primitive, For,
// contiguous row-range partitioners, and a fixed-block decomposition policy
// that makes parallel results bit-reproducible.
//
// The determinism contract has two parts:
//
//  1. Block decomposition is a pure function of the workload (Blocks and
//     SplitN take only sizes). It never depends on the worker count,
//     GOMAXPROCS, or scheduling.
//
//  2. For executes every block exactly once, each block touching only its
//     own outputs (disjoint slices, or one partial-result slot per block).
//     The caller then combines per-block results sequentially in ascending
//     block order.
//
// Together these make every region built on this package produce
// bit-identical results for any worker count, including one: changing the
// worker count only changes which goroutine runs a block, never the block
// boundaries or the combining order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// width is the worker count SetDefaultWorkers set; 0 means GOMAXPROCS.
var width atomic.Int64

// Workers returns the number of goroutines For spreads a region over,
// counting the caller: the last SetDefaultWorkers width, or GOMAXPROCS if
// none was set.
func Workers() int {
	if w := width.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the width For uses to n (<= 0 = the current
// GOMAXPROCS). Results built on this package are identical for every
// width; only wall-clock time changes.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	width.Store(int64(n))
}

// For runs f(b) for every b in [0, nb) and returns when all have finished.
// The caller and up to Workers()-1 goroutines it starts claim blocks from
// an atomic counter; For joins every goroutine before it returns, so
// nothing of a region — goroutine or closure — outlives the call. At width
// 1, or with one block, f runs inline in ascending block order.
func For(nb int, f func(b int)) {
	if nb <= 0 {
		return
	}
	if f == nil {
		panic("parallel: For with nil f")
	}
	w := min(Workers(), nb)
	if w <= 1 {
		for b := range nb {
			f(b)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for b := int(next.Add(1)) - 1; b < nb; b = int(next.Add(1)) - 1 {
			f(b)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// Range is a half-open contiguous block [Lo, Hi) of row (or item) indices.
type Range struct{ Lo, Hi int }

// Blocks returns the fixed block count for a workload of `work` units at
// `grain` units per block, clamped to [1, maxBlocks]. The count depends
// only on the workload — never on the worker count — so any reduction over
// the blocks is invariant under the width.
func Blocks(work, grain, maxBlocks int) int {
	if work <= 0 || grain <= 0 {
		return 1
	}
	nb := (work + grain - 1) / grain
	if maxBlocks >= 1 && nb > maxBlocks {
		nb = maxBlocks
	}
	return nb
}

// SplitN partitions [0, n) into nb contiguous ranges of near-equal length,
// appending to out (pass out[:0] to reuse storage). Ranges may be empty
// when nb > n; together they always cover [0, n) exactly, in order.
func SplitN(n, nb int, out []Range) []Range {
	if nb < 1 {
		nb = 1
	}
	for b := 0; b < nb; b++ {
		out = append(out, Range{Lo: b * n / nb, Hi: (b + 1) * n / nb})
	}
	return out
}
