package dmem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"southwell/internal/parallel"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// TestDistSWBlockGammaTildeExactness verifies the paper's §3 claim at the
// block level: at every step boundary, a rank's record Γ̃ of "what neighbor
// q estimates my norm to be" equals q's actual estimate Γ of this rank's
// norm, for every edge of the process graph. The crossing-write rule in
// the phase-2/3 receive paths is what keeps this exact; without it the
// invariant fails within a few steps.
func TestDistSWBlockGammaTildeExactness(t *testing.T) {
	a := problem.FEM2D(20, 0.3, 11)
	s, b, x := buildCase(t, a, 13, 11)

	checked := 0
	debugHook = func(_ *rma.World, states []*rankState) {
		for p, rs := range states {
			for j, q := range rs.nbrs() {
				qs := states[q]
				jp, ok := slices.BinarySearch(qs.nbrs(), int32(p))
				if !ok {
					t.Fatalf("neighbor asymmetry %d-%d", p, q)
				}
				if rs.gammaTilde[j] != qs.gamma[jp] {
					t.Fatalf("Γ̃ exactness violated on edge %d-%d: %.17g vs %.17g",
						p, q, rs.gammaTilde[j], qs.gamma[jp])
				}
				checked++
			}
		}
	}
	defer func() { debugHook = nil }()

	res := DistributedSouthwell(s, b, x, Config{Steps: 30})
	if checked == 0 {
		t.Fatal("hook never ran")
	}
	if res.Final().ResNorm >= 1 {
		t.Error("no progress under invariant checking")
	}
}

// TestDistSWGhostNeverOverestimatesByMuch spot-checks the ghost layer: the
// local residual value of each boundary row, as ghosted by the neighbor,
// matches the owner's actual residual whenever the owner has not relaxed
// since it last wrote (we verify the weaker, always-true property that
// ghosts are finite and the estimate Γ is non-negative).
func TestDistSWGhostSanity(t *testing.T) {
	a := problem.Poisson2D(18, 18)
	s, b, x := buildCase(t, a, 9, 12)
	debugHook = func(_ *rma.World, states []*rankState) {
		for _, rs := range states {
			for _, z := range rs.z {
				if math.IsNaN(z) || math.IsInf(z, 0) {
					t.Fatal("non-finite ghost value")
				}
			}
			for _, g := range rs.gamma {
				if g < 0 || math.IsNaN(g) {
					t.Fatalf("invalid norm estimate %g", g)
				}
			}
		}
	}
	defer func() { debugHook = nil }()
	DistributedSouthwell(s, b, x, Config{Steps: 20})
}

// TestLocalResidualsExactEveryStep: for every method and both local
// solvers, at every step boundary, the concatenation of local residuals
// equals b - A x for the concatenation of local solutions (communication
// delivers every delta exactly once, and a relaxation's residual bookkeeping
// matches the update it made to x). The phases run on the pool at widths 1,
// 2, 4 and 7, so the sweeps of one step share one accumulator or split over
// several (runState.acc), at P = 2, 7 and 64 on a 289-row mesh and on a
// many-small-parts layout of four rows a rank (1 089 rows, P = 272).
func TestLocalResidualsExactEveryStep(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.Default().Workers())
	defer func() { debugHook = nil }()
	mesh, small := problem.FEM2D(16, 0.3, 13), problem.FEM2D(32, 0.3, 13)
	for _, c := range []struct {
		a     *sparse.CSR
		ranks int
	}{{mesh, 2}, {mesh, 7}, {mesh, 64}, {small, 272}} {
		for _, local := range []LocalSolver{LocalGS, LocalDirect} {
			s, b, x := buildCaseLocal(t, c.a.Clone(), c.ranks, 13, local)
			for _, width := range []int{1, 2, 4, 7} {
				parallel.SetDefaultWorkers(width)
				for name, run := range methods() {
					name := fmt.Sprintf("%s/%v/P=%d/width %d", name, local, c.ranks, width)
					steps := 0
					debugHook = func(_ *rma.World, states []*rankState) {
						steps++
						assertResidualsExact(t, name, s.Layout, b, states)
					}
					run(s, b, x, Config{Steps: 12, Parallel: true})
					if steps == 0 {
						t.Fatalf("%s: hook never ran", name)
					}
				}
			}
		}
	}
}

// TestAccumulatorsZeroEveryStep: a sweep leaves its chunk's accumulator as
// it found it, all zero (relaxSweep clears the rows and the ghost rows it
// copied in), so at every step boundary of DS, PS and BJ every accumulator
// of the run state is +0 throughout — on the benchmark's four shapes, with
// the phases on the pool at widths 1 and 2 (one accumulator, then two).
func TestAccumulatorsZeroEveryStep(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.Default().Workers())
	defer func() { debugHook = nil }()
	for _, width := range []int{1, 2} {
		parallel.SetDefaultWorkers(width)
		for _, c := range e2eShapes() {
			l, err := NewLayout(c.a, c.part, c.p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSetup(l, LocalGS)
			if err != nil {
				t.Fatal(err)
			}
			b, x := problem.ZeroBSystem(c.a, 1)
			for name, run := range methods() {
				name := fmt.Sprintf("%s/%s/width %d", c.name, name, width)
				steps := 0
				debugHook = func(_ *rma.World, states []*rankState) {
					steps++
					acc := states[0].st.acc
					if len(acc) != width {
						t.Fatalf("%s: %d accumulators, want one per chunk (%d)", name, len(acc), width)
					}
					for k, v := range acc {
						for g, f := range v {
							if math.Float64bits(f) != 0 {
								t.Fatalf("%s: after step %d accumulator %d holds %g at row %d", name, steps-1, k, f, g)
							}
						}
					}
				}
				run(s, b, x, Config{Steps: 5, Parallel: true})
				if steps < 2 {
					t.Fatalf("%s: the hook ran %d times", name, steps)
				}
			}
		}
	}
}

// assertResidualsExact fails the test unless the gathered local residuals
// equal b − A·x for the gathered local solutions to 1e-9 in every row.
func assertResidualsExact(t *testing.T, name string, l *Layout, b []float64, states []*rankState) {
	t.Helper()
	xg := make([]float64, l.A.N)
	rg := make([]float64, l.A.N)
	for p, rs := range states {
		for li, g := range l.rows(p) {
			xg[g] = rs.x[li]
			rg[g] = rs.r[li]
		}
	}
	want := make([]float64, l.A.N)
	l.A.Residual(b, xg, want)
	for i := range want {
		if math.Abs(want[i]-rg[i]) > 1e-9 {
			t.Fatalf("%s: residual drift at row %d: stored %g, true %g", name, i, rg[i], want[i])
		}
	}
}

// TestResidualsConservedUnderFaults (ROADMAP item 3(b), drained form): a
// residual delta is additive and exact in any order, so at every step
// boundary where nothing is undelivered — no message held back by the fault
// layer, no window still holding one — every rank's r equals b − A·x for the
// gathered x, whatever the plan delayed and for how long. A delivery held
// back past its sender's next relaxation is exact only because the hold
// function copied its deltas out of the slab (runState.holdBody), so the
// checked boundaries must include some that follow a delayed delivery.
//
// Low rates leave drained boundaries: BJ sends on every edge every step, so
// at 10 % delay nearly every boundary has a message in flight. A Southwell
// rank seldom relaxes twice within three phases, so PS, DS and pb16 get
// delays of up to three steps, long enough to outlast a sender's next
// relaxation; pb16 stalls within about eight steps, so it gets the rate that
// still delays a few of its messages. Eight seeds per case; the boundaries
// are counted over them.
func TestResidualsConservedUnderFaults(t *testing.T) {
	a := problem.FEM2D(16, 0.3, 13)
	type delays struct {
		prob float64
		max  int
	}
	perMethod := map[string]delays{
		"DistributedSouthwell": {0.05, 9}, "ParallelSouthwell": {0.02, 9},
		"BlockJacobi": {0.02, 3}, "Piggyback2016": {0.2, 9},
	}
	plans := []struct {
		name string
		plan func(seed int64, d delays) *rma.FaultPlan
	}{
		{"delay", func(seed int64, d delays) *rma.FaultPlan { return rma.DelayPlan(seed, d.prob, d.max) }},
		{"chaos", func(seed int64, d delays) *rma.FaultPlan { return rma.DelayPlan(seed, d.prob, 2*d.max) }},
	}
	for name, run := range methodsWithPB() {
		for _, pl := range plans {
			for _, par := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/parallel=%v", name, pl.name, par), func(t *testing.T) {
					defer func() { debugHook = nil }()
					checked, afterDelay := 0, 0
					for seed := int64(1); seed <= 8; seed++ {
						s, b, x := buildCase(t, a.Clone(), 8, 13)
						var delayed int64
						debugHook = func(w *rma.World, states []*rankState) {
							if w.InFlight() != 0 || len(w.LiveInboxes()) != 0 {
								return
							}
							assertResidualsExact(t, fmt.Sprintf("seed %d, after phase %d", seed, w.PhaseIndex()), s.Layout, b, states)
							checked++
							if d := w.Stats().DelayedMsgs; d > delayed {
								afterDelay++
								delayed = d
							}
						}
						run(s, b, x, Config{Steps: 30, Faults: pl.plan(seed, perMethod[name]), Parallel: par})
					}
					if afterDelay < 3 {
						t.Errorf("%d of %d drained boundaries followed a delayed delivery, want ≥ 3", afterDelay, checked)
					}
				})
			}
		}
	}
}

// TestSimTimeMonotone: cumulative simulated time and message counts never
// decrease.
func TestSimTimeMonotone(t *testing.T) {
	a := problem.Poisson2D(16, 16)
	for name, run := range methods() {
		s, b, x := buildCase(t, a.Clone(), 8, 14)
		res := run(s, b, x, Config{Steps: 15})
		for i := 1; i < len(res.History); i++ {
			if res.History[i].SimTime < res.History[i-1].SimTime {
				t.Errorf("%s: sim time decreased at step %d", name, i)
			}
			if res.History[i].TotalMsgs() < res.History[i-1].TotalMsgs() {
				t.Errorf("%s: message count decreased at step %d", name, i)
			}
		}
	}
}
