package dmem

import (
	"fmt"
	"testing"

	"southwell/internal/problem"
)

// TestEngineEquivalenceOnSuite: on real suite matrices, a set-up built with
// the worker pool at every width (NewLayout and NewSetup run on it) must
// give bit-identical StepStats histories (residual norms, message counts
// split by tag, simulated time), stats and solutions to one built at the
// default width, for every method. Run under -race via `make race` — the
// equivalence plus the race detector together prove the pooled set-up
// introduces neither nondeterminism nor data races.
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
				eachWidth(func(k int) {
					s2, b2, x2 := buildCase(t, e.Gen(), ranks, 1)
					compareRuns(t, fmt.Sprintf("pool w%d", k), seq, run(s2, b2, x2, Config{Steps: steps}))
				})
			})
		}
	}
}
