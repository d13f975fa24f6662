package dmem

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// TestActiveDenseEquivalence is the step driver's core invariant: skipping
// provably quiescent ranks must be invisible in results. Every method ×
// rank count × fault setting runs once pinned (Config.Dense) with phases
// inline, and with the zero value both inline (seq) and on the pool at every
// width (pool); all runs must be bit-identical to the first — histories,
// cumulative stats, watchdog verdicts, and solutions. Only the
// methods that promise quiescence may report an occupancy histogram: BJ and
// Piggyback2016 never do. Run under -race via `make race`.
func TestActiveDenseEquivalence(t *testing.T) {
	ranks := []int{64}
	if !testing.Short() {
		ranks = append(ranks, 256)
	}
	ms := methodsWithPB()
	for _, p := range ranks {
		grid := 32
		if p > 64 {
			grid = 48
		}
		for mname, run := range ms {
			for _, par := range []bool{false, true} {
				for _, chaos := range []bool{false, true} {
					name := mname
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
							cfg.Steps = 15
							if chaos {
								cfg.Faults = fullChaosPlan(11) // fresh RNG state
							}
							s, b, x := buildCase(t, problem.Poisson2D(grid, grid), p, 1)
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
							check(name, solve(Config{}))
							return
						}
						eachWidth(func(k int) {
							check(fmt.Sprintf("%s/w%d", name, k), solve(Config{Parallel: true}))
						})
					})
				}
			}
		}
	}
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
	plan := func() *rma.FaultPlan {
		return &rma.FaultPlan{
			Seed:      5,
			DelayProb: 0.35,
			DelayMax:  4,
			Pauses:    []rma.Pause{{Rank: 3, From: 5, To: 40}},
		}
	}
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

// TestActiveWatchdogWhileAsleep pauses every rank mid-run so the watchdog's
// patience window elapses with the active set empty or asleep: the stop
// must fire on the same step, with the same verdict, as dense stepping.
func TestActiveWatchdogWhileAsleep(t *testing.T) {
	const p, steps = 8, 40
	plan := func() *rma.FaultPlan {
		pauses := make([]rma.Pause, p)
		for r := range pauses {
			pauses[r] = rma.Pause{Rank: r, From: 6, To: 39}
		}
		return &rma.FaultPlan{Seed: 2, Pauses: pauses}
	}
	s, b, x := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	active := DistributedSouthwell(s, b, x, Config{Steps: steps, Faults: plan(), watchdog: 4})
	s2, b2, x2 := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	dense := DistributedSouthwell(s2, b2, x2, Config{Steps: steps, Faults: plan(), Dense: true, watchdog: 4})
	compareRuns(t, "watchdog", dense, active)
	if !active.Deadlocked {
		t.Fatal("watchdog never fired — pause window or patience is miscalibrated")
	}
	if got, want := len(active.History)-1, active.DeadlockStep; got != want {
		t.Errorf("run continued past the stop: %d steps recorded, stopped at %d", got, want)
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
		{"all clear, pool", Config{Parallel: true}, quiescent, false},
		{"all clear, message faults", Config{Faults: fullChaosPlan(1)}, quiescent, false},
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
