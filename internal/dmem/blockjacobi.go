package dmem

import "southwell/internal/rma"

// BlockJacobi runs Algorithm 1: every parallel step, every rank relaxes its
// subdomain with one local Gauss-Seidel sweep ("hybrid Gauss-Seidel") and
// writes boundary residual deltas to all neighbors; the step's epoch
// completes and every rank absorbs the incoming deltas before the next
// step, so residuals are exact at step boundaries.
func BlockJacobi(s *Setup, b, x []float64, cfg Config) *Result {
	return solve(s, b, x, cfg, func(st *runState, step *int) stepSpec {
		w, states := st.w, st.states

		// absorb drains rank p's window in any phase, deltas always applied.
		// BJ carries no estimates, so there is nothing to guard against
		// staleness.
		absorb := func(p int) {
			rs := states[p]
			for _, m := range w.Inbox(p) {
				pl := m.Payload.(*payload)
				rs.applyDeltas(int(pl.slot), pl.deltas)
			}
		}
		// Relax and write (absorbing any late deliveries first).
		sweep := func(p int) {
			absorb(p)
			rs := states[p]
			traceDecision(w, *step, p, rs, true)
			rs.relaxed = true
			clear(rs.extDelta)
			flops := rs.relaxLocal()
			w.Charge(p, flops)
			for j, q := range rs.nbrs() {
				pl := &rs.solve[j]
				w.Put(p, int(q), rma.TagSolve, msgBytes(len(pl.deltas)), pl)
			}
		}
		// Wait for neighbors to finish writing, then read.
		read := func(p int) {
			rs := states[p]
			absorb(p)
			rs.norm = rs.computeNorm()
			w.Charge(p, 2*float64(len(rs.r)))
		}
		// Never quiescent: every rank relaxes unconditionally every step, so
		// no rank ever holds.
		return stepSpec{name: "Block Jacobi", phases: []func(int){sweep, read}}
	})
}
