package dmem

import (
	"math"
	"testing"

	"southwell/internal/parallel"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// FuzzDelayPlan explores the fault-plan space — a seed, a delay probability
// and a maximum delay of 1–8 phases — across the four methods and 2–16 ranks
// of a 12×12 Poisson grid, 30 steps each. Whatever the plan, no run panics,
// every recorded residual norm is finite, and the run is bit-identical
// (compareRuns) inline and at pool width 2, and unpinned and Dense. The
// seeds are the committed corpus in testdata/fuzz/FuzzDelayPlan.
func FuzzDelayPlan(f *testing.F) {
	methods := []method{DistributedSouthwell, ParallelSouthwell, BlockJacobi, Piggyback2016}
	f.Fuzz(func(t *testing.T, seed int64, prob float64, maxDelay, m, ranks uint8) {
		if !(prob >= 0 && prob <= 1) {
			t.Skip("not a probability")
		}
		plan := rma.DelayPlan(seed, prob, 1+int(maxDelay%8))
		run, p := methods[int(m)%len(methods)], 2+int(ranks%15)
		solve := func(cfg Config) *Result {
			s, b, x := buildCase(t, problem.Poisson2D(12, 12), p, 1)
			cfg.Steps, cfg.Faults = 30, plan
			return run(s, b, x, cfg)
		}
		ref := solve(Config{})
		for _, h := range ref.History {
			if math.IsNaN(h.ResNorm) || math.IsInf(h.ResNorm, 0) {
				t.Fatalf("step %d: residual norm %g", h.Step, h.ResNorm)
			}
		}
		compareRuns(t, "Dense", ref, solve(Config{Dense: true}))
		defer parallel.SetDefaultWorkers(parallel.Default().Workers())
		parallel.SetDefaultWorkers(2)
		compareRuns(t, "pool w2", ref, solve(Config{Parallel: true}))
	})
}
