package dmem

import (
	"math"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/rma"
)

// FuzzDelayPlan explores the fault-plan space — a seed, a delay probability
// and a maximum delay of 1–8 phases — across the four methods and 2–16 ranks
// of a 12×12 Poisson grid, 30 steps each. Whatever the plan, no run panics,
// every recorded residual norm is finite, the run is bit-identical
// (compareRuns) unpinned and Dense, and the run on b and x0 scaled by a
// power of two is the same run scaled (compareScaled). The seeds are the
// committed corpus in testdata/fuzz/FuzzDelayPlan.
func FuzzDelayPlan(f *testing.F) {
	methods := []method{DistributedSouthwell, ParallelSouthwell, BlockJacobi, Piggyback2016}
	f.Fuzz(func(t *testing.T, seed int64, prob float64, maxDelay, m, ranks uint8) {
		if !(prob >= 0 && prob <= 1) {
			t.Skip("not a probability")
		}
		plan := rma.DelayPlan(seed, prob, 1+int(maxDelay%8))
		run, p := methods[int(m)%len(methods)], 2+int(ranks%15)
		solve := func(cfg Config, k float64) *Result {
			s, b, x := buildCase(t, problem.Poisson2D(12, 12), p, 1)
			cfg.Steps, cfg.Faults = 30, plan
			return run(s, times(k, b), times(k, x), cfg)
		}
		ref := solve(Config{}, 1)
		for _, h := range ref.History {
			if math.IsNaN(h.ResNorm) || math.IsInf(h.ResNorm, 0) {
				t.Fatalf("step %d: residual norm %g", h.Step, h.ResNorm)
			}
		}
		compareRuns(t, "Dense", ref, solve(Config{Dense: true}, 1))
		compareScaled(t, "scaled", ref, solve(Config{}, powerScale), powerScale)
	})
}
