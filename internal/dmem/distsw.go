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
	return solve(s, b, x, cfg, func(st *runState) stepSpec {
		w, states, e := st.w, st.states, &st.eng

		// The estimate rule, for a body no older than the newest read from
		// its sender j: the sender's boundary residuals refresh the ghost row,
		// its norm sets Γ[j], and its estimate of this rank's norm sets Γ̃[j].
		estimate := func(rs *rankState, tag rma.Tag, pl *payload, bnd, deltas []float64) {
			j := int(pl.slot)
			z, _ := rs.ghost(j)
			copy(z, bnd)
			rs.gamma[j] = pl.norm
			// A crossing: j's solve body meets this rank's own, sent this step
			// (so lastTold, solve[j].bnd and extDelta describe that send).
			// Fault-free this is exactly the phase-2 sentTo condition; under
			// faults sentTo[j] can also mean an explicit update was sent,
			// which has no crossing.
			crossing := tag == rma.TagSolve && rs.relaxed && rs.sentTo[j]
			switch {
			case crossing && !opts.NoGhostEstimate:
				// The sender's ghost refresh and norm predate this rank's own
				// deltas to it, so re-apply them on top (the "better estimate
				// than doing nothing" of §3). The sender mirrors this
				// arithmetic when it processes this rank's message, and Γ̃ is
				// recomputed from the values this rank sent, so Γ̃ stays
				// exactly equal to the sender's corrected estimate.
				rs.updateGhostAndGamma(j, true)
				adjMine := 0.0
				for k, b0 := range st.floats[rs.solve[j].bnd:][:len(deltas)] {
					nb := b0 + deltas[k]
					adjMine += nb*nb - b0*b0
				}
				rs.gammaTilde[j] = sqrtNonNeg(rs.lastTold*rs.lastTold + adjMine)
			case !crossing && !(tag == rma.TagResidual && rs.sentTo[j]):
				// Γ̃[j] takes the sender's estimate unless this rank's own
				// write to j in the last send phase is newer — an explicit
				// update, or a crossing under NoGhostEstimate, where the
				// sender corrects nothing either — and keeps the value set at
				// that send.
				rs.gammaTilde[j] = pl.estRecv
			}
		}

		// Phase 1: absorb any late deliveries; decide from estimates;
		// relax; write updates.
		phase1 := func(p int) {
			rs := states[p]
			rs.absorb(estimate)
			if !rs.decide() {
				return
			}
			rs.relax()
			for j := range rs.nbrs() {
				// Local, communication-free improvement of the estimate of
				// the neighbor's norm using the ghost layer (skippable for
				// ablation).
				_, delta := rs.ghost(j)
				rs.updateGhostAndGamma(j, !opts.NoGhostEstimate)
				w.Charge(p, 2*float64(len(delta)))
				rs.gammaTilde[j] = rs.norm
				rs.sentTo[j] = true
				nb := rs.gatherBnd(j, st.floats[rs.solve[j].bnd:])
				rs.send(j, rma.TagSolve, len(delta)+nb+2)
			}
		}
		// Phase 2: absorb writes; detect deadlock risk; write explicit
		// residual updates where needed.
		phase2 := func(p int) {
			rs := states[p]
			rs.absorb(estimate)
			clear(rs.sentTo)
			// Starvation re-announce (fault injection only): delayed or
			// crossing messages can desync the Γ̃ mirror arithmetic from the
			// neighbor's actual estimate, and a mutual overestimate cycle
			// would then stall forever — the fault-free §2.4 proof assumes
			// faithful tracking. A rank that has neither relaxed nor
			// received anything for half the watchdog patience re-sends its
			// exact residual state to every neighbor, making the estimates
			// exact again, so Distributed Southwell stays deadlock-free on
			// any eventually-quiescent network.
			refresh := e.starving(rs, st.step)
			if refresh {
				rs.quietSince = st.step - 1
			}
			// Deadlock-risk detection (Algorithm 3, lines 27-30).
			for j, q := range rs.nbrs() {
				if refresh || rs.gammaTilde[j] > rs.norm*(1+opts.UpdateSlack) {
					traceResSend(rs, int(q), rs.gammaTilde[j], refresh)
					rs.gammaTilde[j] = rs.norm
					rs.sentTo[j] = true
					nb := rs.gatherBnd(j, st.floats[rs.res[j].bnd:])
					rs.send(j, rma.TagResidual, nb+2)
				}
			}
		}
		// Phase 3: absorb explicit updates.
		phase3 := func(p int) {
			rs := states[p]
			rs.absorb(estimate)
			clear(rs.sentTo)
		}
		// Quiescent: a rank that held with an empty window re-decides
		// identically until its state changes, and its phase-2 trigger
		// self-extinguishes (a fired send sets Γ̃[j] = ‖r‖, closing the
		// trigger for any slack >= 0). The starvation re-announce is the one
		// per-step poll; the driver keeps it as one stamp per rank plus a
		// wakeup calendar.
		return stepSpec{
			name:       "Distributed Southwell",
			phases:     []func(int){phase1, phase2, phase3},
			quiescent:  true,
			starvation: true,
		}
	})
}
