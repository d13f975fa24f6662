package dmem

import "southwell/internal/rma"

// BlockJacobi runs Algorithm 1: every parallel step, every rank relaxes its
// subdomain with one local Gauss-Seidel sweep ("hybrid Gauss-Seidel") and
// writes boundary residual deltas to all neighbors; the step's epoch
// completes and every rank reads the incoming deltas before the next step,
// so residuals are exact at step boundaries. BJ carries no estimates: its
// reads have no estimate rule.
func BlockJacobi(s *Setup, b, x []float64, cfg Config) *Result {
	return solve(s, b, x, cfg, func(st *runState) stepSpec {
		states := st.states
		// Relax and write (reading any late deliveries first).
		sweep := func(p int) {
			rs := states[p]
			rs.read(nil)
			traceDecision(rs, true)
			st.w.Charge(p, rs.relaxLocal())
			for j := range rs.nbrs() {
				_, delta := rs.ghost(j)
				rs.send(j, rma.TagSolve, len(delta))
			}
		}
		// Wait for neighbors to finish writing, then read.
		read := func(p int) {
			rs := states[p]
			rs.read(nil)
			rs.renorm()
		}
		// Never quiescent: every rank relaxes unconditionally every step, so
		// no rank ever holds.
		return stepSpec{name: "Block Jacobi", phases: []func(int){sweep, read}}
	})
}
