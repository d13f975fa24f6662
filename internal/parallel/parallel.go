// Package parallel is the repository's one fork-join primitive. It has two
// users: dmem's set-up (the NewLayout passes and the local factorizations)
// and the experiment driver internal/bench, whose run sets spread one
// suite run per block. For runs every block of a region once, each block
// touching only its own outputs (disjoint slices, or one slot per block).
// A region built on it gives the same bits at every width, one included,
// when no output depends on where the block boundaries fall (dmem's rank
// blocks: each rank is computed alone, and a per-block minimum is taken
// over all blocks; bench's runs: each is its own deterministic world), or
// when the caller fixes the boundaries without reference to the width and
// combines per-block results in ascending block order. The width then only
// changes which goroutine runs a block.
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
//
// A block may wait on work that another block has already started, such as
// a sync.Once build shared through a memo: the block that started it is
// running on its own goroutine and finishes it. A block must never wait on
// a block not yet claimed — at width 1 that block runs only after the
// waiter returns. f may itself call For.
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
