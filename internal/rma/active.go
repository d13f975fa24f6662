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
// the idle vector. Paused ranks (FaultPlan.Pauses) neither run nor take
// the idle charge: a descheduled rank is charged nothing.

// RunPhaseActive executes one access epoch over the subset of ranks with
// active[p] set (nil: every rank, which is RunPhase): f runs for active
// ranks, skipped unpaused ranks are charged idle[p] flops (idle may be nil
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
	if ch := w.chaos; ch != nil {
		// Paused ranks are descheduled for this phase: their function does
		// not run, and deliver leaves their windows intact so landed
		// one-sided writes stay readable until they next execute.
		ch.markPaused(w.phases)
	}
	w.f, w.active, w.actList, w.idle = f, active, actList, idle
	var pool *parallel.Pool // nil runs the chunks inline, in ascending order
	if w.Parallel {
		pool = parallel.Default()
	}
	w.chunks = max(1, min(pool.Workers(), w.P))
	if n := w.chunks - len(w.stage); n > 0 {
		w.stage = append(w.stage, make([]stageBuf, n)...) // one staging array per chunk, kept for later phases
	}
	pool.Run(&w.task, w.chunks)
	w.deliver()
	w.f, w.active, w.actList, w.idle = nil, nil, nil, nil
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
	if w.chunks <= 1 {
		return 0
	}
	return ((rank+1)*w.chunks - 1) / w.P
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
// width. Chunk boundaries never influence the output — whether a member
// runs is a pure function of pausedNow — so every width is bit-identical.
func (w *World) activeRange(lo, hi int) {
	f, list := w.f, w.actList
	var paused []bool
	if w.chaos != nil {
		paused = w.chaos.pausedNow
	}
	for _, p32 := range list[lowerBound(list, int32(lo)):] {
		p := int(p32)
		if p >= hi {
			break
		}
		if paused != nil && paused[p] {
			continue // descheduled: does not run, and is charged nothing
		}
		f(p)
	}
}
