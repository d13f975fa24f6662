package rma

// Active-subset phase execution: the runtime half of the dmem step driver's
// unpinned mode (DESIGN.md §14). A caller that can prove a rank's phase
// function is a state no-op — empty inbox, unchanged state, no scheduled
// wakeup — runs the phase over just the active subset with RunPhaseActive.
// Every skipped rank's would-be compute charge is paid through the idle
// vector instead, keeping the α-β-γ clock bit-identical to running every
// rank. On the plain barrier path with no fault plan and no tracer, the
// charge is folded into the phase maximum analytically and the boundary
// runs in O(active work) (deliverActive); under chaos or tracing the idle
// flops are written per rank, so straggler multipliers and per-rank cost
// traces match exactly.
//
// Contract, mirroring RunPhase: f(p) may only touch rank p's state, and
// the caller guarantees that for every inactive rank f would have sent no
// messages, mutated no state, and charged exactly idle[p] flops (0 when
// idle is nil); idle[p] must also lower-bound the flop charge of every
// rank that does execute f (it is the unconditional part of the phase),
// which lets the boundary fold the skipped ranks' compute cost from a
// single cached maximum over the idle vector. Paused ranks
// (FaultPlan.Pauses) neither run nor take the idle charge — RunPhase
// charges a descheduled rank nothing, and so do we. Host-time straggler
// hooks (SpinStragglers, HostDelay) fire only for executed ranks; skipping
// ranks under such plans would under-stall the host clock, so the dmem
// driver pins every rank there (dmem.Config.pinned).

// RunPhaseActive executes one access epoch over the subset of ranks with
// active[p] set: f runs for active ranks (sequentially, or sharded over
// the persistent worker pool when w.Parallel is set), skipped unpaused
// ranks are charged idle[p] flops (idle may be nil for a zero-cost
// phase), then all staged puts are delivered and the phase's simulated
// time is accounted exactly as in RunPhase. active must have length P,
// actList must list exactly the ranks with active[p] set, ascending, and
// neither may be mutated until the call returns; a stale or unsorted list
// is a contract violation. The list is what lets the fast boundary run
// phase dispatch, the staged-put sweep and the cost fold as O(active)
// walks, which keeps a paper-scale step near-free when almost every rank
// sleeps. Running a superset of the minimal active set is always safe
// (every rank active is RunPhase).
func (w *World) RunPhaseActive(active []bool, actList []int32, idle []float64, f func(rank int)) {
	if w.closed.Load() {
		panic(ErrClosed)
	}
	if ch := w.chaos; ch != nil {
		ch.markPaused(w.phases)
	}
	if w.chaos == nil && w.trace == nil && w.nb == nil {
		// Arm the O(active work) boundary: activeRange walks the member list
		// and deliver dispatches to deliverActive, which folds the skipped
		// ranks' Gamma·idle[p] compute cost analytically and touches only
		// written windows. With a fault plan or tracer the per-rank path
		// stays: chaos needs per-rank straggler multipliers and traces carry
		// a KindRankCost row per idle-charged rank. (A neighborhood-scheduled
		// world lands messages outside land(), so its liveInbox bookkeeping
		// cannot be trusted — but such worlds never reach RunPhaseActive; the
		// nb check is defense in depth.)
		w.fastActive, w.fastList, w.fastIdle = active, actList, idle
	}
	if w.Parallel && w.P > 1 {
		w.poolOnce.Do(w.startPool)
		w.barrier.Add(len(w.workers))
		for _, c := range w.workers {
			c <- phaseWork{f: f, active: active, idle: idle}
		}
		w.barrier.Wait()
	} else {
		w.activeRange(0, w.P, f, active, idle)
	}
	w.deliver()
	w.fastActive, w.fastList, w.fastIdle = nil, nil, nil
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

// activeRange runs the active-subset phase body over ranks [lo, hi): the
// whole world on the sequential engine, one worker's contiguous chunk on
// the pool. Chunk boundaries never influence the output — each rank's
// branch is a pure function of (active, pausedNow, idle) — so the engines
// stay bit-identical.
func (w *World) activeRange(lo, hi int, f func(int), active []bool, idle []float64) {
	if w.fastActive != nil {
		// Fast boundary armed: walk just the members in [lo, hi) —
		// ascending, so the per-rank call order matches a mask scan on both
		// engines. Skipped ranks take no per-rank write at all;
		// deliverActive folds their idle compute cost analytically.
		list := w.fastList
		for _, p32 := range list[lowerBound(list, int32(lo)):] {
			p := int(p32)
			if p >= hi {
				break
			}
			f(p)
		}
		return
	}
	ch := w.chaos
	for p := lo; p < hi; p++ {
		if ch != nil && ch.pausedNow[p] {
			// Descheduled: the phase function does not run, and RunPhase
			// charges a paused rank nothing — neither do we.
			continue
		}
		if active[p] {
			f(p)
			if ch != nil {
				ch.hostStraggle(p, w.phases, w.flops[p])
			}
		} else if idle != nil {
			w.flops[p] += idle[p]
		}
	}
}
