// Package parallel is the shared deterministic work-splitting layer for the
// repository's numerical kernels and set-up (partitioning, layout, local
// factorization): the process's one persistent worker pool, contiguous row-range partitioners
// (balanced by element count or by nonzero count), and a fixed-block
// decomposition policy that makes parallel reductions bit-reproducible.
//
// The determinism contract has two parts:
//
//  1. Block decomposition is a pure function of the workload (Blocks,
//     SplitN, SplitNNZ take only sizes and row pointers). It never depends
//     on the worker count, GOMAXPROCS, or scheduling.
//
//  2. A parallel region (Pool.Run) executes every block exactly once, each
//     block touching only its own outputs (disjoint slices, or one partial-
//     result slot per block). The caller then combines per-block partials
//     sequentially in ascending block order.
//
// Together these make every kernel built on this package produce
// bit-identical results for any worker count, including one: changing the
// worker count only changes which OS thread runs a block, never the block
// boundaries or the reduction order. The property tests in internal/sparse
// assert this for worker counts {1, 2, 4, 7} under the race detector.
//
// Scheduling inside a region is dynamic (an atomic block counter), which is
// safe precisely because block results are position-addressed rather than
// order-accumulated. Completion is tracked by counting finished blocks, not
// helper goroutines, so a region always terminates even if the pool is
// closed or saturated mid-region: the submitting goroutine participates and
// can finish every block by itself.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a reusable descriptor of one parallel region. Bind F once (it
// receives the block index) and pass the Task to Pool.Run for every
// invocation; a Task holds no per-call allocations, so a long-lived owner
// (e.g. a kernel scratch buffer) reaches zero allocations per call in
// steady state. A Task must not be used by two Run calls concurrently.
type Task struct {
	// F executes one block. It must touch only state owned by that block.
	F func(block int)

	// meta and next pack a region generation (high 32 bits) with a
	// per-region value (low 32 bits): meta holds the block count, next the
	// next unclaimed block index. Run opens a region by bumping the
	// generation in both; helpers claim blocks by CAS on next, so a claim
	// can only succeed against the region it was read from. A helper left
	// over from an earlier region (e.g. a pool worker dequeuing a Task that
	// has since been reset for a different block count) therefore either
	// joins the current region cleanly or sees it exhausted and returns —
	// it can never claim an out-of-range block or double-count done.
	meta atomic.Uint64
	next atomic.Uint64
	done atomic.Int32
	fin  chan struct{}

	// handle is what Run hands the pool's workers instead of the Task: it
	// points at the Task only while a region is open. A worker may not wake
	// for a handle before its region ends (the submitter can finish every
	// block itself), so the handle can outlive the region in the queue; it
	// then keeps neither the Task nor F, nor what F captures, reachable.
	handle *atomic.Pointer[Task]
}

// help claims and executes blocks until the current region is exhausted.
// Whichever executor completes the final block signals the region's fin
// channel. Every claim re-reads the region generation and block count, so
// help is safe to run late: if the Task has moved on to a new region it
// simply helps that region instead.
func (t *Task) help() {
	for {
		s := t.next.Load()
		gen := uint32(s >> 32)
		m := t.meta.Load()
		if uint32(m>>32) != gen {
			// Run is mid-reset between storing meta and next; re-read.
			continue
		}
		b := int32(s)
		n := int32(m)
		if b >= n {
			return
		}
		if !t.next.CompareAndSwap(s, s+1) {
			continue
		}
		t.F(int(b))
		if t.done.Add(1) == n {
			t.fin <- struct{}{}
		}
	}
}

// Pool is a persistent set of worker goroutines executing parallel regions.
// Workers are created once and reused across all regions until Close — no
// per-region goroutine spawning. A Pool is safe for concurrent Run calls
// from multiple goroutines (regions interleave over the shared workers; a
// saturated pool degrades to the submitting goroutine doing more of its own
// blocks, never to blocking or deadlock).
type Pool struct {
	width  int // executor slots including the submitting goroutine
	tasks  chan *atomic.Pointer[Task]
	stop   chan struct{}
	closed atomic.Bool
	once   sync.Once
}

// NewPool creates a pool with the given number of executor slots; the
// submitting goroutine always counts as one, so a pool of width w starts
// w-1 worker goroutines. workers <= 0 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{width: workers}
	if workers > 1 {
		p.tasks = make(chan *atomic.Pointer[Task], workers-1)
		p.stop = make(chan struct{})
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

// Workers returns the pool's executor width (including the caller's slot).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.width
}

func (p *Pool) worker() {
	for {
		select {
		case h := <-p.tasks:
			helpHandle(h)
		case <-p.stop:
			// Drain already-enqueued regions before exiting so no task
			// reference is stranded in the buffer.
			for {
				select {
				case h := <-p.tasks:
					helpHandle(h)
				default:
					return
				}
			}
		}
	}
}

// helpHandle helps the region a dequeued handle names, if one is still
// open; a handle whose region has ended names no Task.
func helpHandle(h *atomic.Pointer[Task]) {
	if t := h.Load(); t != nil {
		t.help()
	}
}

// Run executes t.F(b) for every b in [0, nblocks) and returns when all
// blocks have completed. The caller participates as an executor, so Run
// completes even on a closed, saturated, or width-1 pool (where it simply
// runs the blocks inline, in ascending order — the same blocks, hence the
// same results).
func (p *Pool) Run(t *Task, nblocks int) {
	if nblocks <= 0 {
		return
	}
	if t.F == nil {
		panic("parallel: Run with nil Task.F")
	}
	if p == nil || p.width <= 1 || nblocks == 1 || p.closed.Load() {
		for b := 0; b < nblocks; b++ {
			t.F(b)
		}
		return
	}
	if t.fin == nil {
		// One-time lazy init per Task, reused by every later region.
		t.fin, t.handle = make(chan struct{}, 1), new(atomic.Pointer[Task])
	}
	// Open a new region generation. done must be reset before next exposes
	// the new generation: a stale helper can only touch done after a
	// successful gen-tagged claim, and all of the previous region's done
	// increments happened before its fin receive above a prior Run return.
	gen := uint64(uint32(t.meta.Load()>>32) + 1)
	t.done.Store(0)
	t.meta.Store(gen<<32 | uint64(uint32(nblocks)))
	t.next.Store(gen << 32)
	helpers := p.width - 1
	if nblocks-1 < helpers {
		helpers = nblocks - 1
	}
	t.handle.Store(t)
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- t.handle:
		default:
			// All workers busy with other regions: do the work ourselves.
			i = helpers
			_ = i
		}
	}
	t.help()
	<-t.fin
	t.handle.Store(nil) // a handle still queued keeps nothing of this region
}

// Close releases the worker goroutines. Regions in flight still complete
// (their submitters finish the blocks themselves), and later Run calls
// execute inline. Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		if p.stop != nil {
			close(p.stop)
		}
	})
}

var (
	defMu   sync.Mutex
	defPool atomic.Pointer[Pool]
)

// Default returns the shared pool, created on first use with GOMAXPROCS
// executor slots.
func Default() *Pool {
	if p := defPool.Load(); p != nil {
		return p
	}
	defMu.Lock()
	defer defMu.Unlock()
	if p := defPool.Load(); p != nil {
		return p
	}
	p := NewPool(0)
	defPool.Store(p)
	return p
}

// SetDefaultWorkers resizes the shared pool to n executor slots (<= 0 =
// GOMAXPROCS). It is a no-op when the pool already has that width. Results
// of the kernels built on this package are identical for every width; only
// wall-clock time changes. Regions in flight on the old pool complete
// safely (see Close), but callers should still prefer configuring the pool
// at startup or between kernel invocations.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defMu.Lock()
	defer defMu.Unlock()
	if cur := defPool.Load(); cur != nil {
		if cur.Workers() == n {
			return
		}
		cur.Close()
	}
	defPool.Store(NewPool(n))
}

// Range is a half-open contiguous block [Lo, Hi) of row (or item) indices.
type Range struct{ Lo, Hi int }

// Blocks returns the fixed block count for a workload of `work` units at
// `grain` units per block, clamped to [1, maxBlocks]. The count depends
// only on the workload — never on the worker count — so any reduction over
// the blocks is invariant under the pool width.
func Blocks(work, grain, maxBlocks int) int {
	if work <= 0 || grain <= 0 {
		return 1
	}
	nb := (work + grain - 1) / grain
	if nb < 1 {
		nb = 1
	}
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

// SplitNNZ partitions the rows [0, len(rowPtr)-1) into nb contiguous
// ranges of near-equal nonzero count, using the CSR row pointer, appending
// to out. Boundaries are the rows where the running nonzero count first
// reaches each k/nb fraction of the total — a pure function of (rowPtr,
// nb). Ranges may be empty; together they cover every row exactly once, in
// order.
func SplitNNZ(rowPtr []int32, nb int, out []Range) []Range {
	n := len(rowPtr) - 1
	if n < 0 {
		n = 0
	}
	if nb < 1 {
		nb = 1
	}
	total := int32(0)
	if n > 0 {
		total = rowPtr[n]
	}
	prev := 0
	for b := 1; b <= nb; b++ {
		hi := n
		if b < nb {
			target := int32(int64(total) * int64(b) / int64(nb))
			hi = searchGE(rowPtr, target)
			if hi > n {
				hi = n
			}
			if hi < prev {
				hi = prev
			}
		}
		out = append(out, Range{Lo: prev, Hi: hi})
		prev = hi
	}
	return out
}

// searchGE returns the smallest index i with xs[i] >= v (len(xs) if none).
func searchGE(xs []int32, v int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
