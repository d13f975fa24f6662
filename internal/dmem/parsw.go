package dmem

import "southwell/internal/rma"

// psSolvePayload is a relaxation message: boundary residual deltas with the
// sender's new residual norm piggybacked (Algorithm 2, line 10).
type psSolvePayload struct {
	deltas []float64
	norm   float64
	seq    int32 // sender sequence number (stale-estimate guard; see seqSeen)
	slot   int32 // the sender's position in the receiver's Nbrs (RankData.SlotInNbr)
}

// CloneMessage deep-copies the payload for the fault layer: the sender
// reuses deltas on its next relaxation, so a delivery held back past that
// phase must not alias it.
func (pl *psSolvePayload) CloneMessage() any {
	c := *pl
	c.deltas = append([]float64(nil), pl.deltas...)
	return &c
}

// psResPayload is an explicit residual-norm update (Algorithm 2, line 20).
type psResPayload struct {
	norm float64
	seq  int32
	slot int32
}

func (pl *psResPayload) CloneMessage() any {
	c := *pl
	return &c
}

// ParallelSouthwell runs the block form of Algorithm 2 over the simulated
// one-sided runtime. Each parallel step has the algorithm's three phases:
//
//  1. ranks whose exact norm is maximal in their neighborhood relax and
//     write deltas + their new norm to all neighbors;
//  2. ranks absorb incoming writes, and any rank whose norm changed without
//     having announced it writes an explicit residual update to all
//     neighbors — the communication Distributed Southwell eliminates;
//  3. ranks absorb the explicit updates.
//
// Norms in Γ are therefore exact at every decision, making the method
// mathematically identical to shared-memory block Parallel Southwell.
func ParallelSouthwell(l *Layout, b, x []float64, cfg Config) *Result {
	return solve(l, b, x, cfg, func(st *runState, step *int) stepSpec {
		w, states, off := st.w, st.states, st.nbrOff
		// Persistent payloads (payloadTable).
		solvePl := payloadTable(st, 0, func(pl *psSolvePayload, slot int32) { pl.slot = slot })
		resPl := payloadTable(st, 1, func(pl *psResPayload, slot int32) { pl.slot = slot })

		// absorb drains rank p's window in any phase: deltas are always applied
		// (additive, exact regardless of arrival order), the piggybacked norm is
		// taken only when at least as fresh as what was already absorbed, and
		// fault-injected duplicate landings are skipped (a real duplicated
		// one-sided write is idempotent). Reduces to the paper's phase-2/phase-3
		// reads on a perfect network.
		absorb := func(p int) {
			rs := states[p]
			changed := false
			for _, m := range w.Inbox(p) {
				if m.Dup {
					continue
				}
				switch pl := m.Payload.(type) {
				case *psSolvePayload:
					j := int(pl.slot)
					rs.applyDeltas(j, pl.deltas)
					changed = true
					if int64(pl.seq) >= rs.seqSeen[j] {
						rs.seqSeen[j] = int64(pl.seq)
						rs.gamma[j] = pl.norm
					}
				case *psResPayload:
					if j := int(pl.slot); int64(pl.seq) >= rs.seqSeen[j] {
						rs.seqSeen[j] = int64(pl.seq)
						rs.gamma[j] = pl.norm
					}
				}
			}
			if changed {
				rs.norm = rs.computeNorm()
				w.Charge(p, 2*float64(rs.rd.M()))
			}
		}

		// Phase 1: absorb late deliveries; decide and relax.
		phase1 := func(p int) {
			absorb(p)
			rs := states[p]
			wins := rs.norm > 0
			for j, q := range rs.rd.Nbrs {
				if !winsOver(rs.norm, p, rs.gamma[j], q) {
					wins = false
					break
				}
			}
			w.Charge(p, float64(rs.rd.Degree()))
			traceDecision(w, *step, p, rs, wins)
			if !wins {
				return
			}
			rs.relaxed = true
			rs.zeroExtDelta()
			flops := rs.relaxLocal()
			rs.norm = rs.computeNorm()
			rs.lastTold = rs.norm
			w.Charge(p, flops+2*float64(rs.rd.M()))
			for j, q := range rs.rd.Nbrs {
				pl := &solvePl[off[p]+j]
				pl.deltas = rs.deltasFor(j)
				pl.norm = rs.norm
				pl.seq = 2 * int32(*step)
				w.Put(p, q, rma.TagSolve, msgBytes(len(pl.deltas)+1), pl)
			}
		}
		// Phase 2: absorb writes; announce changed norms.
		phase2 := func(p int) {
			absorb(p)
			rs := states[p]
			// Bit-exact by design: any change at all to the norm since the
			// last announcement must be broadcast (Algorithm 2, line 20) —
			// a tolerance here would let stale Γ entries persist.
			if rs.norm != rs.lastTold { //dslint:ignore floatcmp

				traceResSend(w, *step, p, -1, rs.lastTold, rs, false)
				rs.lastTold = rs.norm
				for j, q := range rs.rd.Nbrs {
					pl := &resPl[off[p]+j]
					pl.norm = rs.norm
					pl.seq = 2*int32(*step) + 1
					w.Put(p, q, rma.TagResidual, msgBytes(1), pl)
				}
			}
		}
		// Quiescent: a held decision replays until the state changes, and the
		// phase-2 announce self-extinguishes (a fired announce sets
		// lastTold = norm, closing the trigger). No starvation clock — exact
		// norms cannot deadlock. Phase 3 absorbs the explicit updates.
		return stepSpec{name: "Parallel Southwell", phases: []func(int){phase1, phase2, absorb}, quiescent: true}
	})
}
