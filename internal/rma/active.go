package rma

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
// ranks, in ascending rank order on the calling goroutine, skipped ranks
// are charged idle[p] flops (idle may be nil for a zero-cost phase), then
// all staged puts are delivered and the phase's simulated time is
// accounted. A non-nil active must have length P, actList must list
// exactly the ranks with active[p] set, ascending, and neither may be
// mutated until the call returns; a stale or unsorted list is a contract
// violation. The list is what phase dispatch, the staged-put sweep and the
// cost fold walk, which keeps a paper-scale step near-free when almost
// every rank sleeps. Running a superset of the minimal active set is
// always safe.
func (w *World) RunPhaseActive(active []bool, actList []int32, idle []float64, f func(rank int)) {
	if w.closed {
		panic(ErrClosed)
	}
	if active == nil {
		actList, idle = w.all, nil
	}
	w.active, w.actList, w.idle = active, actList, idle
	for _, p := range actList {
		f(int(p))
	}
	w.deliver()
	w.active, w.actList, w.idle = nil, nil, nil
}
