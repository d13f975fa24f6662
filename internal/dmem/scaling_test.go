package dmem

import (
	"fmt"
	"slices"
	"testing"

	"southwell/internal/rma"
)

// powerScale is the power of two the scaling tests multiply a system by:
// every operation of a run is linear in (b, x0) or a comparison, and a
// power of two scales a float exactly, far from overflow and underflow.
const powerScale = 1 << 7

// times returns v multiplied by k, in a new slice.
func times(k float64, v []float64) []float64 {
	out := slices.Clone(v)
	for i := range out {
		out[i] *= k
	}
	return out
}

// compareScaled fails the test unless got is ref's run on the system scaled
// by k: every StepStats field but ResNorm, the cumulative Stats, the
// occupancy histogram and the watchdog verdict equal, and ResNorm and X
// exactly k times ref's.
func compareScaled(t *testing.T, label string, ref, got *Result, k float64) {
	t.Helper()
	if len(ref.History) != len(got.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(ref.History), len(got.History))
	}
	for s, h := range ref.History {
		g := got.History[s]
		if g.ResNorm != k*h.ResNorm {
			t.Fatalf("%s: step %d: ResNorm %.17g, want %g × %.17g", label, s, g.ResNorm, k, h.ResNorm)
		}
		g.ResNorm, h.ResNorm = 0, 0
		if g != h {
			t.Fatalf("%s: step %d differs:\nref    %+v\nscaled %+v", label, s, h, g)
		}
	}
	if ref.Stats != got.Stats {
		t.Fatalf("%s: stats differ:\nref    %+v\nscaled %+v", label, ref.Stats, got.Stats)
	}
	if !slices.Equal(ref.ActiveHist, got.ActiveHist) {
		t.Fatalf("%s: occupancy histograms differ", label)
	}
	if ref.Deadlocked != got.Deadlocked || ref.DeadlockStep != got.DeadlockStep {
		t.Fatalf("%s: watchdog verdicts differ: (%v,%d) vs (%v,%d)",
			label, ref.Deadlocked, ref.DeadlockStep, got.Deadlocked, got.DeadlockStep)
	}
	for i, v := range ref.X {
		if got.X[i] != k*v {
			t.Fatalf("%s: x[%d] = %.17g, want %g × %.17g", label, i, got.X[i], k, v)
		}
	}
}

// TestPowerOfTwoScaling: scaling b and x0 by a power of two scales the run
// and nothing else — the same ranks relax in the same steps, send the same
// messages at the same simulated times, and the watchdog rules alike —
// for every method and both local solvers, on two suite matrices at
// P = 64, on a perfect network and under a delay plan. A decision that
// compares a norm against an absolute threshold, or adds a constant to one,
// breaks it. Block Jacobi decides nothing — every rank relaxes every step,
// the same linear map — and costs the most per step, so it runs ten steps
// and the others fifty.
func TestPowerOfTwoScaling(t *testing.T) {
	const ranks = 64
	plans := []struct {
		name string
		plan *rma.FaultPlan
	}{{"fault-free", nil}, {"delay", rma.DelayPlan(7, 0.25, 3)}}
	for _, mat := range []string{"Geo_1438", "Flan_1565"} {
		for _, local := range []LocalSolver{LocalGS, LocalDirect} {
			s, b, x := buildCaseLocal(t, suiteMatrix(t, mat), ranks, 1, local)
			bk, xk := times(powerScale, b), times(powerScale, x)
			for mname, run := range methodsWithPB() {
				for _, pl := range plans {
					name := fmt.Sprintf("%s/%v/%s/%s", mat, local, mname, pl.name)
					steps := 50
					if mname == "BlockJacobi" {
						steps = 10
					}
					t.Run(name, func(t *testing.T) {
						ref := run(s, b, x, Config{Steps: steps, Faults: pl.plan})
						if pl.plan != nil && ref.Stats.DelayedMsgs == 0 {
							t.Fatal("the plan held no message back: it missed the run")
						}
						compareScaled(t, name, ref, run(s, bk, xk, Config{Steps: steps, Faults: pl.plan}), powerScale)
					})
				}
			}
		}
	}
}
