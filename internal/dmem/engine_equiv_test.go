package dmem

import (
	"testing"

	"southwell/internal/problem"
)

// TestEngineEquivalenceOnSuite is the DESIGN.md §6 ablation promoted to a
// permanent invariant: the persistent worker-pool engine must produce
// bit-identical StepStats histories (residual norms, message counts split
// by tag, simulated time) to the sequential engine, for every method, on
// real suite matrices. Run under -race via `make race` — the equivalence
// plus the race detector together prove the pool introduces neither
// nondeterminism nor data races.
func TestEngineEquivalenceOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	names := []string{"Hook_1498", "msdoor", "af_5_k101"}
	const ranks, steps = 64, 12
	for _, name := range names {
		e, ok := problem.SuiteByName(name)
		if !ok {
			t.Fatalf("unknown suite matrix %q", name)
		}
		for mname, run := range methods() {
			t.Run(name+"/"+mname, func(t *testing.T) {
				s, b, x := buildCase(t, e.Gen(), ranks, 1)
				seq := run(s, b, x, Config{Steps: steps})
				s2, b2, x2 := buildCase(t, e.Gen(), ranks, 1)
				par := run(s2, b2, x2, Config{Steps: steps, Parallel: true})
				compareRuns(t, "pool", seq, par)
			})
		}
	}
}
