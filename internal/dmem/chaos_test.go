package dmem

import (
	"fmt"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/rma"
)

// fullChaosPlan turns every fault class on at once: delays, duplicates,
// reordering, a straggler, and two pause windows.
func fullChaosPlan(seed int64) *rma.FaultPlan {
	return &rma.FaultPlan{
		Seed:        seed,
		DelayProb:   0.25,
		DelayMax:    3,
		DupProb:     0.15,
		ReorderProb: 0.4,
		Stragglers:  map[int]float64{1: 2.5},
		Pauses:      []rma.Pause{{Rank: 2, From: 4, To: 9}, {Rank: 5, From: 15, To: 18}},
	}
}

// TestChaosEngineEquivalence: a chaos run is a deterministic function of
// the FaultPlan seed and identical at every width — same history (step
// stats including fault counters), same cumulative stats, same solution,
// with phases inline run twice and on the pool at every width. Run under
// -race via `make race`.
func TestChaosEngineEquivalence(t *testing.T) {
	for mname, run := range methodsWithPB() {
		t.Run(mname, func(t *testing.T) {
			solve := func(parallel bool) *Result {
				s, b, x := buildCase(t, problem.Poisson2D(24, 24), 8, 3)
				return run(s, b, x, Config{Steps: 20, Parallel: parallel, Faults: fullChaosPlan(7)})
			}
			seq := solve(false)
			compareRuns(t, "seq rerun", seq, solve(false))
			eachWidth(func(k int) {
				compareRuns(t, fmt.Sprintf("pool w%d", k), seq, solve(true))
			})
			fin := seq.Final()
			if fin.Delayed == 0 || fin.Duped == 0 || fin.Reordered == 0 || fin.Paused == 0 {
				t.Errorf("plan injected nothing: %+v", fin)
			}
		})
	}
}

// TestChaosFaultCountersCumulative: the per-step fault counters recorded in
// StepStats are cumulative (non-decreasing) and zero at step 0.
func TestChaosFaultCountersCumulative(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	s, b, x := buildCase(t, a, 8, 3)
	res := DistributedSouthwell(s, b, x, Config{Steps: 20, Faults: fullChaosPlan(7)})
	if h0 := res.History[0]; h0.Delayed != 0 || h0.Duped != 0 || h0.Reordered != 0 || h0.Paused != 0 {
		t.Errorf("step 0 has nonzero fault counters: %+v", h0)
	}
	for i := 1; i < len(res.History); i++ {
		prev, cur := res.History[i-1], res.History[i]
		if cur.Delayed < prev.Delayed || cur.Duped < prev.Duped ||
			cur.Reordered < prev.Reordered || cur.Paused < prev.Paused {
			t.Fatalf("fault counters decreased at step %d: %+v -> %+v", i, prev, cur)
		}
	}
}

// TestPerfectNetworkHasZeroFaultCounters: without an installed plan the new
// StepStats fields stay zero, so fault-free output is unchanged.
func TestPerfectNetworkHasZeroFaultCounters(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	s, b, x := buildCase(t, a, 8, 3)
	res := DistributedSouthwell(s, b, x, Config{Steps: 10})
	for _, h := range res.History {
		if h.Delayed != 0 || h.Duped != 0 || h.Reordered != 0 || h.Paused != 0 {
			t.Fatalf("fault counters nonzero on perfect network: %+v", h)
		}
	}
}

// TestChaosDichotomyOnSuite is the paper's §2.4 dichotomy extended to an
// imperfect network (the acceptance invariant of the fault-injection
// layer): under delay-only faults on the Quick suite, Distributed
// Southwell still reaches the paper's 0.1 target without ever tripping the
// stagnation watchdog, while the 2016 piggyback variant stagnates and is
// detected.
func TestChaosDichotomyOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	const ranks, steps = 64, 120
	plan := rma.DelayPlan(11, 0.3, 3)
	for _, name := range []string{"Hook_1498", "msdoor", "af_5_k101"} {
		e, ok := problem.SuiteByName(name)
		if !ok {
			t.Fatalf("unknown suite matrix %q", name)
		}
		t.Run(name, func(t *testing.T) {
			s, b, x := buildCase(t, e.Gen(), ranks, 1)
			ds := DistributedSouthwell(s, b, x, Config{Steps: steps, Faults: plan})
			if ds.Deadlocked {
				t.Errorf("DS tripped the watchdog at step %d under delay-only faults", ds.DeadlockStep)
			}
			if _, reached := ds.StepsToNorm(0.1); !reached {
				t.Errorf("DS did not reach 0.1 in %d steps (final %g)", steps, ds.Final().ResNorm)
			}
			s2, b2, x2 := buildCase(t, e.Gen(), ranks, 1)
			pb := Piggyback2016(s2, b2, x2, Config{Steps: steps, Faults: plan})
			if !pb.Deadlocked {
				t.Errorf("Piggyback2016 not detected as stagnated (final %g)", pb.Final().ResNorm)
			}
		})
	}
}

// TestWatchdogPatienceWindow: when every rank is paused for longer than the
// run, nothing can ever progress but the fault layer never goes quiescent —
// the windowed patience rule must stop the run after Watchdog idle steps
// instead of burning the whole budget.
func TestWatchdogPatienceWindow(t *testing.T) {
	a := problem.Poisson2D(16, 16)
	s, b, x := buildCase(t, a, 4, 1)
	plan := &rma.FaultPlan{Seed: 1}
	for p := 0; p < 4; p++ {
		plan.Pauses = append(plan.Pauses, rma.Pause{Rank: p, From: 0, To: 1 << 30})
	}
	res := DistributedSouthwell(s, b, x, Config{Steps: 200, watchdog: 6, Faults: plan})
	if !res.Deadlocked {
		t.Fatal("fully paused run not flagged as stagnated")
	}
	if res.DeadlockStep != 6 {
		t.Errorf("DeadlockStep = %d, want 6 (the patience window)", res.DeadlockStep)
	}
	if got := len(res.History) - 1; got != 6 {
		t.Errorf("ran %d steps, want 6", got)
	}
}
