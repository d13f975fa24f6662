package dmem

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// TestActiveDenseEquivalence is the step driver's core invariant: skipping
// provably quiescent ranks must be invisible in results. Every input ×
// method × fault setting runs once pinned (Config.Dense), and with the zero
// value both on the same set-up (seq) and on set-ups built with the worker
// pool at every width (pool: NewLayout and NewSetup run on the pool, rank
// phases never do); all runs must be bit-identical to the first —
// histories, cumulative stats, watchdog verdicts, and solutions. Only the
// methods that promise quiescence may report an occupancy histogram: BJ and
// Piggyback2016 never do. The inputs are a random initial guess, which keeps
// nearly every rank busy, and the quick scaling study's point load, where
// most rank-steps are skipped: on its fault-free DS run at P = 64 more than
// half are, so the comparison covers the regime the active set is built
// for. Run under -race via `make race`.
func TestActiveDenseEquivalence(t *testing.T) {
	type input struct {
		prefix string // of the subtest names; the random inputs keep the bare method names
		steps  int
		build  func(t *testing.T) (*Setup, []float64, []float64)
		// mostlyAsleep: the fault-free DS run must skip more than half its
		// rank-steps.
		mostlyAsleep bool
	}
	random := func(grid, p int) input {
		return input{"", 15, func(t *testing.T) (*Setup, []float64, []float64) {
			return buildCase(t, problem.Poisson2D(grid, grid), p, 1)
		}, false}
	}
	pointLoad := func(p int) input {
		return input{fmt.Sprintf("pointload/p%d/", p), 50, func(t *testing.T) (*Setup, []float64, []float64) {
			return pointLoadCase(t, 64, p)
		}, p == 64}
	}
	inputs := []input{random(32, 64)}
	if !testing.Short() {
		inputs = append(inputs, random(48, 256))
	}
	inputs = append(inputs, pointLoad(16), pointLoad(64))
	ms := methodsWithPB()
	for _, in := range inputs {
		for mname, run := range ms {
			for _, par := range []bool{false, true} {
				for _, chaos := range []bool{false, true} {
					name := in.prefix + mname
					if par {
						name += "/pool"
					} else {
						name += "/seq"
					}
					if chaos {
						name += "/chaos"
					}
					t.Run(name, func(t *testing.T) {
						solve := func(cfg Config) *Result {
							cfg.Steps = in.steps
							if chaos {
								cfg.Faults = fullChaosPlan(11) // fresh RNG state
							}
							s, b, x := in.build(t)
							return run(s, b, x, cfg)
						}
						dense := solve(Config{Dense: true})
						if dense.ActiveHist != nil {
							t.Errorf("dense run reported an active histogram")
						}
						check := func(label string, active *Result) {
							compareRuns(t, label, dense, active)
							quiescent := mname == "DistributedSouthwell" || mname == "ParallelSouthwell"
							if got := active.ActiveHist != nil; got != quiescent {
								t.Errorf("%s: active histogram reported = %v, want %v", label, got, quiescent)
							}
						}
						if !par {
							active := solve(Config{})
							check(name, active)
							if in.mostlyAsleep && mname == "DistributedSouthwell" && !chaos {
								if f := skippedFrac(active); f <= 0.5 {
									t.Errorf("%.1f%% of rank-steps skipped, want more than half: not the point-load regime", 100*f)
								}
							}
							return
						}
						eachWidth(func(k int) {
							check(fmt.Sprintf("%s/w%d", name, k), solve(Config{}))
						})
					})
				}
			}
		}
	}
}

// pointLoadCase is the quick scaling study's point load (bench.Scaling):
// the scaled grid² Poisson matrix over p ranks, b = e_k at the grid centre
// and x0 = 0. Away from the load the residual is exactly zero, so a rank
// holds until the relaxation wavefront reaches it.
func pointLoadCase(t *testing.T, grid, p int) (*Setup, []float64, []float64) {
	s, b, x := buildCase(t, problem.Poisson2D(grid, grid), p, 1)
	clear(b)
	clear(x)
	b[len(b)/2+grid/2] = 1
	return s, b, x
}

// skippedFrac is the share of rank-steps an active run skipped.
func skippedFrac(res *Result) float64 {
	sum := 0
	for _, n := range res.ActiveHist {
		sum += n
	}
	return 1 - float64(sum)/float64(len(res.ActiveHist)*res.P)
}

// TestActiveSkipsQuiescentRanks checks the engine actually sleeps ranks on
// a fault-free Southwell run — the whole point of active stepping — and
// that the histogram is well-formed: step 1 is dense (no hold observed
// yet) and counts stay in [0, P].
func TestActiveSkipsQuiescentRanks(t *testing.T) {
	const p, steps = 16, 30
	s, b, x := buildCase(t, problem.Poisson2D(32, 32), p, 2)
	res := DistributedSouthwell(s, b, x, Config{Steps: steps})
	if res.ActiveHist == nil {
		t.Fatal("active run reported no histogram")
	}
	if len(res.ActiveHist) != len(res.History)-1 {
		t.Fatalf("histogram length %d, want one per executed step %d",
			len(res.ActiveHist), len(res.History)-1)
	}
	if res.ActiveHist[0] != p {
		t.Errorf("step 1 ran %d ranks, want all %d (first step is dense)", res.ActiveHist[0], p)
	}
	min := p
	for s, n := range res.ActiveHist {
		if n < 0 || n > p {
			t.Fatalf("step %d active count %d out of range [0,%d]", s+1, n, p)
		}
		if n < min {
			min = n
		}
	}
	if min >= p {
		t.Errorf("no rank was ever skipped across %d steps — engine is not sleeping anyone", steps)
	}
}

// TestActiveStarvationWakeup exercises the wakeup calendar: under a fault
// plan, a skipped rank's starvation re-announce must fire exactly as the
// dense per-step poll would. The run is long enough for refresh sends to
// occur (asserted via the trace's refresh flag) while ranks sleep
// (asserted via the histogram), and the dense run must still be
// bit-identical — so every calendar wakeup landed on the right step.
func TestActiveStarvationWakeup(t *testing.T) {
	const p, steps = 16, 60
	plan := func() *rma.FaultPlan { return rma.DelayPlan(5, 0.35, 12) } // delays long enough to starve
	rec := obs.NewRecorder(p)
	s, b, x := buildCase(t, problem.Poisson2D(24, 24), p, 3)
	active := DistributedSouthwell(s, b, x, Config{Steps: steps, Faults: plan(), Trace: rec})
	s2, b2, x2 := buildCase(t, problem.Poisson2D(24, 24), p, 3)
	dense := DistributedSouthwell(s2, b2, x2, Config{Steps: steps, Faults: plan(), Dense: true})
	compareRuns(t, "starvation", dense, active)

	skipped := false
	for _, n := range active.ActiveHist {
		if n < p {
			skipped = true
			break
		}
	}
	if !skipped {
		t.Fatal("no rank ever slept — the wakeup path was not exercised")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"refresh":true`) {
		t.Error("no starvation re-announce fired — raise steps or delay probability")
	}
}

// TestActiveWatchdogWhileAsleep holds every message back past the run
// (lostPlan), so Parallel Southwell — quiescent, with no re-announce —
// sleeps through the watchdog's patience window with the active set empty:
// the stop must fire on the same step, with the same verdict, as dense
// stepping.
func TestActiveWatchdogWhileAsleep(t *testing.T) {
	const p, steps, patience = 8, 40, 4
	s, b, x := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	active := ParallelSouthwell(s, b, x, Config{Steps: steps, Faults: lostPlan(), watchdog: patience})
	s2, b2, x2 := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	dense := ParallelSouthwell(s2, b2, x2, Config{Steps: steps, Faults: lostPlan(), Dense: true, watchdog: patience})
	compareRuns(t, "watchdog", dense, active)
	if !active.Deadlocked {
		t.Fatal("watchdog never fired — plan or patience is miscalibrated")
	}
	if got, want := len(active.History)-1, active.DeadlockStep; got != want {
		t.Errorf("run continued past the stop: %d steps recorded, stopped at %d", got, want)
	}
	if want := 1 + patience; active.DeadlockStep != want {
		t.Errorf("DeadlockStep = %d, want %d (step 1 sends, then the patience window)", active.DeadlockStep, want)
	}
	if n := active.ActiveHist[len(active.ActiveHist)-1]; n != 0 {
		t.Errorf("%d ranks stepped on the stop step: the active run did not sleep through the wait", n)
	}
}

// TestConfigPinned walks the one predicate that decides whether ranks may
// sleep: each of the two rules pins on its own, and only a quiescent method
// under a plain configuration is left unpinned.
func TestConfigPinned(t *testing.T) {
	quiescent := stepSpec{quiescent: true}
	cases := []struct {
		name string
		cfg  Config
		spec stepSpec
		want bool
	}{
		{"all clear", Config{}, quiescent, false},
		{"all clear, delay plan", Config{Faults: fullChaosPlan(1)}, quiescent, false},
		{"never quiescent (BJ, PB16)", Config{}, stepSpec{}, true},
		{"Dense", Config{Dense: true}, quiescent, true},
	}
	for _, c := range cases {
		if got := c.cfg.pinned(c.spec); got != c.want {
			t.Errorf("%s: pinned = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNegativeUpdateSlackPanics: a negative slack keeps the phase-2 trigger
// open after a send, which would break DS's quiescence promise and the
// Γ̃ ≤ ‖r‖ bound §2.4's deadlock-freedom rests on, so it is refused before
// a run state is taken.
func TestNegativeUpdateSlackPanics(t *testing.T) {
	s, b, x := buildCase(t, problem.Poisson2D(8, 8), 4, 1)
	for _, slack := range []float64{-0.1, math.NaN()} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "UpdateSlack") {
					t.Errorf("slack %g: panic %q, want one naming UpdateSlack", slack, msg)
				}
			}()
			DistributedSouthwellOpt(s, b, x, Config{Steps: 1}, DistSWOptions{UpdateSlack: slack})
		}()
	}
	if s.parked != nil {
		t.Error("a refused solve parked a run state")
	}
}

// TestSyncListMatchesInSet: merging the admitted ranks into the member list
// leaves exactly the ascending list of ranks inSet holds, whatever the
// members and the admission order, admissions of members included (a no-op).
func TestSyncListMatchesInSet(t *testing.T) {
	const p = 97
	rng := rand.New(rand.NewSource(5))
	e := &stepEngine{list: make([]int32, 0, p), admitted: make([]int32, 0, p), inSet: make([]bool, p), sawMail: make([]bool, p)}
	for round := range 200 {
		for _, q := range rng.Perm(p)[:rng.Intn(p/4+1)] {
			e.admit(q, round, false)
		}
		e.syncList()
		var want []int32
		for q, in := range e.inSet {
			if in {
				want = append(want, int32(q))
			}
		}
		if !slices.Equal(e.list, want) {
			t.Fatalf("round %d: list %v, inSet holds %v", round, e.list, want)
		}
		// Drop a random share of the members, as endStep does.
		kept := e.list[:0]
		for _, q := range e.list {
			if rng.Intn(3) == 0 {
				e.inSet[q] = false
				continue
			}
			kept = append(kept, q)
		}
		e.list = kept
	}
}
