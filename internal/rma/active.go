package rma

import "southwell/internal/parallel"

// Phase execution: the one runner behind RunPhase and RunPhaseActive, and
// the runtime half of the dmem step driver's unpinned mode (DESIGN.md §14).
// A caller that can prove a rank's phase function is a state no-op — empty
// inbox, unchanged state, no scheduled wakeup — runs the phase over just
// the active subset. A skipped rank is never visited: its would-be compute
// charge idle[p] is folded into the phase maximum at the boundary (deliver),
// which keeps the α-β-γ clock bit-identical to running every rank. RunPhase
// is the same walk over the world's identity list.
//
// Contract: f(p) may only touch rank p's state, and the caller guarantees
// that for every inactive rank f would have sent no messages, mutated no
// state, and charged exactly idle[p] flops (0 when idle is nil); idle[p]
// must also lower-bound the flop charge of every rank that does execute f
// (it is the unconditional part of the phase), which lets the boundary
// fold the skipped ranks' compute cost from a single cached maximum over
// the idle vector.

// RunPhaseActive executes one access epoch over the subset of ranks with
// active[p] set (nil: every rank, which is RunPhase): f runs for active
// ranks, skipped ranks are charged idle[p] flops (idle may be nil
// for a zero-cost phase), then all staged puts are delivered and the
// phase's simulated time is accounted. The ranks are cut into contiguous
// chunks, one region on parallel.Default() when w.Parallel is set and the
// same region inline (the nil pool) when not. A non-nil active must have
// length P, actList must list exactly the ranks with active[p] set,
// ascending, and neither may be mutated until the call returns; a stale or
// unsorted list is a contract violation. The list is what phase dispatch,
// the staged-put sweep and the cost fold walk, which keeps a paper-scale
// step near-free when almost every rank sleeps. Running a superset of the
// minimal active set is always safe.
func (w *World) RunPhaseActive(active []bool, actList []int32, idle []float64, f func(rank int)) {
	if w.closed {
		panic(ErrClosed)
	}
	if active == nil {
		actList, idle = w.all, nil
	}
	w.f, w.active, w.actList, w.idle = f, active, actList, idle
	pool := w.pool()
	w.chunks = chunkCount(pool, w.P)
	if n := w.chunks - len(w.stage); n > 0 {
		w.stage = append(w.stage, make([]stageBuf, n)...) // one staging array per chunk, kept for later phases
	}
	pool.Run(&w.task, w.chunks)
	w.deliver()
	w.f, w.active, w.actList, w.idle = nil, nil, nil, nil
}

// pool is where a phase opened now runs its chunks: the shared pool when
// Parallel is set, the nil pool (inline, in ascending order) when not.
func (w *World) pool() *parallel.Pool {
	if w.Parallel {
		return parallel.Default()
	}
	return nil
}

// chunkCount is the one chunking rule's width: one chunk per worker of the
// pool, at most one per rank.
func chunkCount(pool *parallel.Pool, p int) int {
	return max(1, min(pool.Workers(), p))
}

// runChunk is the region body: chunk b of w.chunks near-equal contiguous
// rank ranges.
func (w *World) runChunk(b int) {
	w.activeRange(b*w.P/w.chunks, (b+1)*w.P/w.chunks)
}

// chunkOf returns the chunk whose range runChunk gives rank: the largest b
// with b*P/chunks <= rank. Between phases it answers for the last phase's
// chunks (chunk 0 before the first).
func (w *World) chunkOf(rank int) int {
	return chunkIn(rank, w.chunks, w.P)
}

// chunkIn is the largest b with b*p/chunks <= rank.
func chunkIn(rank, chunks, p int) int {
	if chunks <= 1 {
		return 0
	}
	return ((rank+1)*chunks - 1) / p
}

// ChunkOf returns the execution chunk that runs rank's phase function: in
// a phase, that phase's; between phases, the one a phase opened now would
// give it, under Parallel and the pool's width as they stand. The ranks of
// one chunk run one after another on one goroutine, so scratch kept per
// chunk (as Put's staging arrays are) is never touched by two at once.
// ChunkOf(P-1)+1 is the number of chunks.
func (w *World) ChunkOf(rank int) int {
	if w.f == nil {
		return chunkIn(rank, chunkCount(w.pool(), w.P), w.P)
	}
	return w.chunkOf(rank)
}

// lowerBound returns the first index in the ascending list whose value is
// >= x (len(list) if none). Hand-rolled so the hot path stays closure- and
// allocation-free.
func lowerBound(list []int32, x int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// activeRange runs the phase in flight over the members in [lo, hi),
// ascending: the one per-chunk body of RunPhase and RunPhaseActive at every
// width. Chunk boundaries never influence the output — every member runs,
// whichever chunk holds it — so every width is bit-identical.
func (w *World) activeRange(lo, hi int) {
	f, list := w.f, w.actList
	for _, p := range list[lowerBound(list, int32(lo)):] {
		if int(p) >= hi {
			break
		}
		f(int(p))
	}
}
