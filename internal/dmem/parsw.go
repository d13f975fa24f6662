package dmem

import "southwell/internal/rma"

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
func ParallelSouthwell(s *Setup, b, x []float64, cfg Config) *Result {
	return parallelSouthwell(s, b, x, cfg, true)
}

// Piggyback2016 runs the 2016 precursor of Parallel Southwell (ref [18] of
// the paper): Parallel Southwell without its announce phase. Residual norms
// travel *only* piggybacked on relaxation messages; norm changes from
// incoming deltas are never announced. When every rank's (stale) estimates
// of its neighbors exceed its own norm, no rank relaxes and the state can
// never change again: the method deadlocks, as the paper reports it does on
// all test problems. The stagnation watchdog (common.go) stops the run at the
// first such step and sets Result.Deadlocked.
func Piggyback2016(s *Setup, b, x []float64, cfg Config) *Result {
	return parallelSouthwell(s, b, x, cfg, false)
}

func parallelSouthwell(s *Setup, b, x []float64, cfg Config, announce bool) *Result {
	return solve(s, b, x, cfg, func(st *runState) stepSpec {
		states := st.states
		// The estimate rule: Γ ← the sender's exact norm, from a body of
		// either tag. Reduces to the paper's phase-2/phase-3 reads on a
		// perfect network.
		estimate := func(rs *rankState, _ rma.Tag, pl *payload, _, _ []float64) {
			rs.gamma[pl.slot] = pl.norm
		}
		absorb := func(p int) { states[p].absorb(estimate) }

		// Phase 1: absorb late deliveries; decide and relax; write deltas
		// and the new norm.
		phase1 := func(p int) {
			rs := states[p]
			rs.absorb(estimate)
			if !rs.decide() {
				return
			}
			rs.relax()
			for j := range rs.nbrs() {
				_, delta := rs.ghost(j)
				rs.send(j, rma.TagSolve, len(delta)+1)
			}
		}
		if !announce {
			// No explicit residual update phase: this is the deadlock
			// mechanism. The method promises no quiescence.
			return stepSpec{name: "Piggyback 2016", phases: []func(int){phase1, absorb}}
		}
		// Phase 2: absorb writes; announce changed norms (Algorithm 2, line 20).
		phase2 := func(p int) {
			rs := states[p]
			rs.absorb(estimate)
			// Bit-exact by design: any change at all to the norm since the
			// last announcement must be broadcast — a tolerance here would let
			// stale Γ entries persist.
			if rs.norm != rs.lastTold {
				traceResSend(rs, -1, rs.lastTold, false)
				rs.lastTold = rs.norm
				for j := range rs.nbrs() {
					rs.send(j, rma.TagResidual, 1)
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
