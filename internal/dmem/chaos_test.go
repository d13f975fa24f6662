package dmem

import (
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// fullChaosPlan is the heavy delay plan: half of all messages held back by
// up to four phases, more than a full parallel step of any method.
func fullChaosPlan(seed int64) *rma.FaultPlan {
	return rma.DelayPlan(seed, 0.5, 4)
}

// TestChaosEngineEquivalence: a chaos run is a deterministic function of
// the FaultPlan seed — run twice, same history (step stats including the
// fault counter), same cumulative stats, same solution. Run under -race
// via `make race`.
func TestChaosEngineEquivalence(t *testing.T) {
	for mname, run := range methodsWithPB() {
		t.Run(mname, func(t *testing.T) {
			solve := func() *Result {
				s, b, x := buildCase(t, problem.Poisson2D(24, 24), 8, 3)
				return run(s, b, x, Config{Steps: 20, Faults: fullChaosPlan(7)})
			}
			seq := solve()
			compareRuns(t, "seq rerun", seq, solve())
			if seq.Stats.DelayedMsgs == 0 {
				t.Errorf("plan injected nothing: %+v", seq.Stats)
			}
		})
	}
}

// TestChaosFaultCountersCumulative: the run's fault counter,
// Stats.DelayedMsgs, is the total of the per-message fault records — one
// obs.KindFault event per held-back message, none before the step-0 record.
func TestChaosFaultCountersCumulative(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	s, b, x := buildCase(t, a, 8, 3)
	rec := obs.NewRecorderCap(8, 4096)
	res := DistributedSouthwell(s, b, x, Config{Steps: 20, Faults: fullChaosPlan(7), Trace: rec})
	if rec.Dropped() != 0 {
		t.Fatalf("%d events dropped: the rings are too small to count faults", rec.Dropped())
	}
	var faults int64
	stepZero := false
	for _, e := range rec.Events() {
		switch {
		case e.Kind == obs.KindStep && e.Step == 0:
			stepZero = true
		case e.Kind == obs.KindFault && e.Flag == obs.FlagFaultDelayed:
			if !stepZero {
				t.Fatalf("fault record before the step-0 record: %+v", e)
			}
			faults++
		}
	}
	if faults != res.Stats.DelayedMsgs {
		t.Errorf("%d fault records, Stats.DelayedMsgs = %d", faults, res.Stats.DelayedMsgs)
	}
	if faults == 0 {
		t.Error("the plan held no message back: the test observes nothing")
	}
}

// TestPerfectNetworkHasZeroFaultCounters: without an installed plan the
// fault counter stays zero, so fault-free output is unchanged.
func TestPerfectNetworkHasZeroFaultCounters(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	s, b, x := buildCase(t, a, 8, 3)
	res := DistributedSouthwell(s, b, x, Config{Steps: 10})
	if res.Stats.DelayedMsgs != 0 {
		t.Errorf("Stats.DelayedMsgs = %d on a perfect network", res.Stats.DelayedMsgs)
	}
}

// TestChaosDichotomyOnSuite is the paper's §2.4 dichotomy extended to an
// imperfect network (the acceptance invariant of the fault-injection
// layer): under delay faults on the Quick suite, Distributed Southwell
// still reaches the paper's 0.1 target without ever tripping the
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

// lostPlan holds every message back for up to 2²⁰ phases: on a run of
// tens of steps nothing sent ever lands, yet the fault layer never goes
// quiescent, so only the watchdog's patience clause can stop the run.
// Parallel Southwell reaches that clause: its first step relaxes and sends,
// and every later step is idle. Distributed Southwell never does: its
// starvation re-announce fires at half the patience, and its sends make the
// step non-idle (DESIGN.md §7).
func lostPlan() *rma.FaultPlan { return rma.DelayPlan(2, 1, 1<<20) }

// TestWatchdogPatienceWindow: when nothing sent can land within the run,
// nothing can ever progress but the fault layer never goes quiescent — the
// windowed patience rule must stop the run on the patience step after the
// last active one instead of burning the whole budget.
func TestWatchdogPatienceWindow(t *testing.T) {
	const patience = 6
	s, b, x := buildCase(t, problem.Poisson2D(16, 16), 8, 4)
	res := ParallelSouthwell(s, b, x, Config{Steps: 200, watchdog: patience, Faults: lostPlan()})
	if !res.Deadlocked {
		t.Fatal("run with every message lost in flight not flagged as stagnated")
	}
	if res.Stats.DelayedMsgs == 0 || res.Stats.Delivered != 0 {
		t.Fatalf("stats %+v: the plan must hold every message back", res.Stats)
	}
	if want := 1 + patience; res.DeadlockStep != want {
		t.Errorf("DeadlockStep = %d, want %d (step 1 sends, then the patience window)", res.DeadlockStep, want)
	}
	if got := len(res.History) - 1; got != res.DeadlockStep {
		t.Errorf("ran %d steps, want %d", got, res.DeadlockStep)
	}
}

// TestHeldBodyKeepsSendersFloats: a body the fault layer holds back lands
// with the floats its sender had at the boundary that held it — bnd and
// deltas both — although by then the sender has rewritten its extDelta row
// and its bnd and sent again; a body that lands on time is read in place,
// from the sender's floats in the slab.
func TestHeldBodyKeepsSendersFloats(t *testing.T) {
	s, b, x := buildCase(t, problem.Poisson2D(12, 12), 4, 1)
	for _, plan := range []*rma.FaultPlan{nil, rma.DelayPlan(1, 1, 1)} {
		st := newRunState(s)
		st.reset(b, x, Config{Faults: plan}, stepSpec{})
		w, rs := st.w, st.states[0]
		q := st.states[rs.nbrs()[0]]
		_, delta := rs.ghost(0)
		bnd := st.floats[rs.solve[0].bnd:][:len(rs.myBnd(0))]
		// send writes what a relaxation and a send write — the extDelta row
		// and bnd toward neighbor 0 — and puts the solve body.
		send := func(v float64) {
			for k := range delta {
				delta[k] = v + float64(k)
			}
			for k := range bnd {
				bnd[k] = -v - float64(k)
			}
			w.Put(0, int(q.p), rma.TagSolve, 8, &rs.solve[0])
		}
		w.RunPhase(func(p int) {
			if p == 0 {
				send(1)
			}
		})
		if plan != nil {
			// Held one boundary: the sender relaxes and sends again first.
			w.RunPhase(func(p int) {
				if p == 0 {
					send(100)
				}
			})
		}
		in := w.Inbox(int(q.p))
		if len(in) != 1 {
			t.Fatalf("plan %v: %d messages in the window, want 1", plan, len(in))
		}
		_, gotBnd, gotDeltas := st.body(q, &in[0])
		if len(gotBnd) != len(bnd) || len(gotDeltas) != len(delta) {
			t.Fatalf("plan %v: the receiver reads %d bnd and %d deltas, the sender wrote %d and %d", plan, len(gotBnd), len(gotDeltas), len(bnd), len(delta))
		}
		if _, held := in[0].Payload.(*heldBody); held != (plan != nil) {
			t.Errorf("plan %v: the body landed as %T", plan, in[0].Payload)
		}
		if plan == nil && (&gotBnd[0] != &bnd[0] || &gotDeltas[0] != &delta[0]) {
			t.Error("a body on time is not read from the sender's floats")
		}
		for k := range gotBnd {
			if gotBnd[k] != -1-float64(k) {
				t.Errorf("plan %v: bnd[%d] = %g, the sender had %g", plan, k, gotBnd[k], -1-float64(k))
			}
		}
		for k := range gotDeltas {
			if gotDeltas[k] != 1+float64(k) {
				t.Errorf("plan %v: deltas[%d] = %g, the sender had %g", plan, k, gotDeltas[k], 1+float64(k))
			}
		}
	}
}
