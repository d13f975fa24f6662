package dmem

import (
	"math"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

// TestBlockAtOneRowPerRankMatchesScalar holds the two implementations of
// Algorithm 3 to each other. PAPER.md §1 presents scalar Distributed
// Southwell as the block method with one equation per process, so dmem at
// P = n (identity part vector, LocalGS: an exact solve on a 1-row block) must
// relax the same rows as the scalar solver at every step, send the same
// solve messages, and leave the same x bit for bit; Parallel Southwell
// likewise (the scalar form counts no messages). Norms are summed in a
// different order and agree to a relative 1e-10.
//
// Block DS sends more explicit updates than scalar DS, never fewer, because
// it carries Γ as √(Γ² + Σ(new² − old²)): a few ulps above ‖r‖ trip the
// Γ̃ > ‖r‖ trigger where the scalar form's exact |z| does not (EXPERIMENTS.md,
// "Scalar DS is block DS at one row per rank"). The excess is bounded here at
// 3 % over 40 steps.
func TestBlockAtOneRowPerRankMatchesScalar(t *testing.T) {
	const steps = 40
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"Poisson2D/8", problem.Poisson2D(8, 8)},
		{"Poisson2D/16", problem.Poisson2D(16, 16)},
		{"FEM2D/20", problem.FEM2D(20, 0.35, 20170713)},
		{"Poisson3D/8/lognormal", problem.Poisson3D(8, 8, 8, problem.LognormalCoeff(8, 8, 8, 1, 3), 1, 1, 1)},
		{"Aniso2D/22", problem.Aniso2D(22, 22, 0.01)},
		{"QuadrantJump2D/22", problem.QuadrantJump2D(22, 22, 100)},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := c.a
			if _, err := sparse.Scale(a); err != nil {
				t.Fatal(err)
			}
			n := a.N
			part := make([]int, n)
			for i := range part {
				part[i] = i
			}
			l, err := NewLayout(a, part, n)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSetup(l, LocalGS)
			if err != nil {
				t.Fatal(err)
			}
			b, x0 := problem.ZeroBSystem(a, 5)
			for _, m := range []struct {
				name   string
				ds     bool // the scalar form counts messages
				block  method
				scalar func(*sparse.CSR, []float64, []float64, solvers.Options) *solvers.Trace
			}{
				{"PS", false, ParallelSouthwell, solvers.ParallelSouthwell},
				{"DS", true, DistributedSouthwell, solvers.DistributedSouthwell},
			} {
				x := append([]float64(nil), x0...)
				tr := m.scalar(a, b, x, solvers.Options{MaxRelax: math.MaxInt, MaxSteps: steps})
				res := m.block(s, b, append([]float64(nil), x0...), Config{Steps: steps})
				if tr.NumSteps() != steps || len(res.History) != steps+1 {
					t.Fatalf("%s: scalar ran %d steps, block %d, want %d", m.name, tr.NumSteps(), len(res.History)-1, steps)
				}
				for k, w := range tr.Steps {
					h := res.History[k+1]
					if h.RelaxedRanks != w.Relaxations {
						t.Fatalf("%s step %d: block relaxed %d rows, scalar %d", m.name, w.Step, h.RelaxedRanks, w.Relaxations)
					}
					if m.ds && h.SolveMsgs != int64(w.SolveMsgs) {
						t.Fatalf("%s step %d: block sent %d solve messages, scalar %d", m.name, w.Step, h.SolveMsgs, w.SolveMsgs)
					}
					if h.ResMsgs < int64(w.ResMsgs) {
						t.Fatalf("%s step %d: block sent %d explicit updates, scalar %d: want no fewer", m.name, w.Step, h.ResMsgs, w.ResMsgs)
					}
					if math.Abs(h.ResNorm-w.ResNorm) > 1e-10*w.ResNorm {
						t.Fatalf("%s step %d: block ‖r‖ %.17g, scalar %.17g", m.name, w.Step, h.ResNorm, w.ResNorm)
					}
				}
				for i := range x {
					if res.X[i] != x[i] {
						t.Fatalf("%s: x[%d] block %.17g, scalar %.17g", m.name, i, res.X[i], x[i])
					}
				}
				if got, sc := res.Final().ResMsgs, tr.Final().ResMsgs; m.ds && float64(got) > 1.03*float64(sc) {
					t.Errorf("%s: block sent %d explicit updates, scalar %d: more than 3 %% more", m.name, got, sc)
				}
			}
		})
	}
}
