package dmem

import (
	"fmt"

	"southwell/internal/rma"
)

// DistSWOptions are Distributed Southwell variants beyond the paper,
// default-zero for the paper's algorithm.
type DistSWOptions struct {
	// NoGhostEstimate disables the communication-free Γ improvement via
	// the ghost layer (ablation: shows the ghost estimates are
	// load-bearing for message reduction).
	NoGhostEstimate bool
	// UpdateSlack relaxes the explicit-update trigger to
	// Γ̃ > (1+UpdateSlack)·‖r_p‖ (ablation: trades messages for risk of
	// slower estimate correction). Zero is the paper's trigger; a negative
	// slack, which would keep the trigger open after a send, panics.
	UpdateSlack float64
}

// DistributedSouthwell runs the block form of Algorithm 3, the paper's
// contribution. Ranks decide to relax from *estimates* Γ of neighbor norms;
// estimates improve locally through the ghost residual layer when a rank
// relaxes; and an explicit residual update is written to neighbor q only
// when q's estimate of this rank's norm (Γ̃, maintained exactly without
// communication) exceeds the actual norm — the deadlock-risk condition.
func DistributedSouthwell(s *Setup, b, x []float64, cfg Config) *Result {
	return DistributedSouthwellOpt(s, b, x, cfg, DistSWOptions{})
}

// DistributedSouthwellOpt is DistributedSouthwell with ablation options.
func DistributedSouthwellOpt(s *Setup, b, x []float64, cfg Config, opts DistSWOptions) *Result {
	if !(opts.UpdateSlack >= 0) {
		panic(fmt.Sprintf("dmem: UpdateSlack = %g, want >= 0", opts.UpdateSlack))
	}
	return solve(s, b, x, cfg, func(st *runState, step *int) stepSpec {
		w, states := st.w, st.states

		// absorb drains rank p's window — callable from any phase. Residual
		// deltas are always applied: they are additive and exact regardless of
		// arrival order or lateness. Ghost refreshes and the Γ/Γ̃ estimates are
		// guarded by the payload sequence number, so a delayed message cannot
		// overwrite fresher information with stale values. On a perfect
		// network phase-1 windows are empty and every sequence number is
		// fresh, so this reduces exactly to the paper's phase-2/phase-3 reads.
		absorb := func(p int) {
			rs := states[p]
			changed := false
			for _, m := range w.Inbox(p) {
				rs.gotMsg = true
				pl := m.Payload.(*payload)
				j := int(pl.slot)
				switch m.Tag {
				case rma.TagSolve:
					rs.applyDeltas(j, pl.deltas)
					changed = true
					if pl.seq < rs.seqSeen[j] {
						continue // keep the deltas, drop the stale estimates
					}
					rs.seqSeen[j] = pl.seq
					// Crossing correction only when this rank itself relaxed
					// this step and wrote to j (so lastSentNorm, solve[j].bnd
					// and extDelta describe this step's send). Fault-free this
					// is exactly the phase-2 sentTo condition; under faults
					// sentTo[j] can also mean an explicit update was sent,
					// which has no crossing.
					z, delta := rs.ghost(j)
					if rs.relaxed && rs.sentTo[j] {
						// Crossing relaxations: the sender's ghost refresh and
						// norm predate this rank's own deltas to it, so re-apply
						// them on top (the "better estimate than doing nothing"
						// of §3). The sender mirrors this arithmetic when it
						// processes this rank's message, and Γ̃ is recomputed
						// from the values this rank sent, so Γ̃ stays exactly
						// equal to the sender's corrected estimate.
						adj := 0.0
						for k, b0 := range pl.bnd {
							nz := b0 + delta[k]
							adj += nz*nz - b0*b0
							if !opts.NoGhostEstimate {
								z[k] = nz
							} else {
								z[k] = b0
							}
						}
						if opts.NoGhostEstimate {
							rs.gamma[j] = pl.norm
							// Γ̃ keeps the value set at send time: the sender
							// applies no correction either in this mode.
						} else {
							rs.gamma[j] = sqrtNonNeg(pl.norm*pl.norm + adj)
							adjMine := 0.0
							for k, b0 := range rs.solve[j].bnd {
								nb := b0 + pl.deltas[k]
								adjMine += nb*nb - b0*b0
							}
							rs.gammaTilde[j] = sqrtNonNeg(rs.lastSentNorm*rs.lastSentNorm + adjMine)
						}
					} else {
						copy(z, pl.bnd)
						rs.gamma[j] = pl.norm
						rs.gammaTilde[j] = pl.estRecv
					}
				case rma.TagResidual:
					if pl.seq < rs.seqSeen[j] {
						continue
					}
					rs.seqSeen[j] = pl.seq
					z, _ := rs.ghost(j)
					copy(z, pl.bnd)
					rs.gamma[j] = pl.norm
					if !rs.sentTo[j] {
						rs.gammaTilde[j] = pl.estRecv
					}
				}
			}
			if changed {
				rs.norm = rs.computeNorm()
				w.Charge(p, 2*float64(len(rs.r)))
			}
		}

		chaotic := cfg.Faults != nil
		refreshAfter := cfg.refreshAfter()
		// Phase 1: absorb any late deliveries; decide from estimates;
		// relax; write updates.
		phase1 := func(p int) {
			absorb(p)
			rs := states[p]
			wins := rs.winsAll()
			w.Charge(p, float64(len(rs.gamma)))
			traceDecision(w, *step, p, rs, wins)
			if !wins {
				return
			}
			rs.relaxed = true
			clear(rs.extDelta)
			flops := rs.relaxLocal()
			rs.norm = rs.computeNorm()
			rs.lastSentNorm = rs.norm
			w.Charge(p, flops+2*float64(len(rs.r)))
			for j, q := range rs.nbrs() {
				// Local, communication-free improvement of the estimate of
				// q's norm using the ghost layer (skippable for ablation).
				z, delta := rs.ghost(j)
				if opts.NoGhostEstimate {
					for k, d := range delta {
						z[k] += d
					}
				} else {
					rs.updateGhostAndGamma(j)
				}
				w.Charge(p, 2*float64(len(z)))
				rs.gammaTilde[j] = rs.norm
				rs.sentTo[j] = true
				pl := &rs.solve[j]
				rs.gatherBnd(j, pl.bnd)
				pl.norm, pl.estRecv, pl.seq = rs.norm, rs.gamma[j], 2*int32(*step)
				w.Put(p, int(q), rma.TagSolve, msgBytes(len(pl.deltas)+len(pl.bnd)+2), pl)
			}
		}
		// Phase 2: absorb writes; detect deadlock risk; write explicit
		// residual updates where needed.
		phase2 := func(p int) {
			absorb(p)
			rs := states[p]
			for j := range rs.sentTo {
				rs.sentTo[j] = false
			}
			// Starvation re-announce (fault injection only): delayed or
			// crossing messages can desync the Γ̃ mirror arithmetic from the
			// neighbor's actual estimate, and a mutual overestimate cycle
			// would then stall forever — the fault-free §2.4 proof assumes
			// faithful tracking. A rank that has neither relaxed nor
			// received anything for half the watchdog patience re-sends its
			// exact residual state to every neighbor, making the estimates
			// exact again, so Distributed Southwell stays deadlock-free on
			// any eventually-quiescent network.
			refresh := chaotic && rs.starved >= refreshAfter
			if refresh {
				rs.starved = 0
			}
			// Deadlock-risk detection (Algorithm 3, lines 27-30).
			for j, q := range rs.nbrs() {
				if refresh || rs.gammaTilde[j] > rs.norm*(1+opts.UpdateSlack) {
					traceResSend(w, *step, p, int(q), rs.gammaTilde[j], rs, refresh)
					rs.gammaTilde[j] = rs.norm
					rs.sentTo[j] = true
					pl := &rs.res[j]
					rs.gatherBnd(j, pl.bnd)
					pl.norm, pl.estRecv, pl.seq = rs.norm, rs.gamma[j], 2*int32(*step)+1
					w.Put(p, int(q), rma.TagResidual, msgBytes(len(pl.bnd)+2), pl)
				}
			}
		}
		// Phase 3: absorb explicit updates.
		phase3 := func(p int) {
			absorb(p)
			rs := states[p]
			for j := range rs.sentTo {
				rs.sentTo[j] = false
			}
		}
		// Quiescent: a rank that held with an empty window re-decides
		// identically until its state changes, and its phase-2 trigger
		// self-extinguishes (a fired send sets Γ̃[j] = ‖r‖, closing the
		// trigger for any slack >= 0). The starvation re-announce is the one
		// per-step poll; the driver converts it to step stamps plus a wakeup
		// calendar.
		return stepSpec{
			name:       "Distributed Southwell",
			phases:     []func(int){phase1, phase2, phase3},
			quiescent:  true,
			starvation: true,
		}
	})
}
