package dmem

import "southwell/internal/rma"

// Piggyback2016 runs the 2016 precursor of Parallel Southwell (ref [18] of
// the paper): residual norms travel *only* piggybacked on relaxation
// messages; there are no explicit residual updates. When every rank's
// (stale) estimates of its neighbors exceed its own norm, no rank relaxes
// and the state can never change again: the method deadlocks, as the paper
// reports it does on all test problems. The stagnation watchdog (common.go)
// stops the run at the first such step and sets Result.Deadlocked.
func Piggyback2016(l *Layout, b, x []float64, cfg Config) *Result {
	return solve(l, b, x, cfg, func(st *runState, step *int) stepSpec {
		w, states, off := st.w, st.states, st.nbrOff
		// Persistent payloads (payloadTable).
		solvePl := payloadTable(st, 0, func(pl *psSolvePayload, slot int32) { pl.slot = slot })

		// absorb drains rank p's window in any phase: deltas always applied,
		// piggybacked norms guarded by the payload sequence number, duplicate
		// landings skipped. The method's one absorbing phase runs it
		// fault-free unchanged; under faults it also picks up late deliveries
		// in phase 1.
		absorb := func(p int) {
			rs := states[p]
			changed := false
			for _, m := range w.Inbox(p) {
				if m.Dup {
					continue
				}
				pl := m.Payload.(*psSolvePayload)
				j := int(pl.slot)
				rs.applyDeltas(j, pl.deltas)
				changed = true
				if int64(pl.seq) >= rs.seqSeen[j] {
					rs.seqSeen[j] = int64(pl.seq)
					rs.gamma[j] = pl.norm
				}
			}
			if changed {
				rs.norm = rs.computeNorm()
			}
		}
		relax := func(p int) {
			absorb(p)
			rs := states[p]
			wins := rs.norm > 0
			for j, q := range rs.rd.Nbrs {
				if !winsOver(rs.norm, p, rs.gamma[j], q) {
					wins = false
					break
				}
			}
			traceDecision(w, *step, p, rs, wins)
			if !wins {
				return
			}
			rs.relaxed = true
			rs.zeroExtDelta()
			flops := rs.relaxLocal()
			rs.norm = rs.computeNorm()
			w.Charge(p, flops+2*float64(rs.rd.M()))
			for j, q := range rs.rd.Nbrs {
				pl := &solvePl[off[p]+j]
				pl.deltas = rs.deltasFor(j)
				pl.norm = rs.norm
				pl.seq = 2 * int32(*step)
				w.Put(p, q, rma.TagSolve, msgBytes(len(pl.deltas)+1), pl)
			}
		}
		// No explicit residual update phase: norm changes from incoming
		// deltas are never announced. This is the deadlock mechanism. The
		// decision scan is not charged, so the method promises no quiescence.
		return stepSpec{name: "Piggyback 2016", phases: []func(int){relax, absorb}}
	})
}
