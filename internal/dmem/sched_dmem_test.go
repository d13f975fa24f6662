package dmem

import (
	"testing"

	"southwell/internal/problem"
	"southwell/internal/rma"
)

// TestNeighborSchedIdenticalHistory: the neighborhood-epoch pool engine is
// bit-identical to the sequential engine for every method, on a partition
// whose neighborhoods are a strict subset of the machine (so phases really
// do pipeline).
func TestNeighborSchedIdenticalHistory(t *testing.T) {
	a := problem.FEM2D(24, 0.3, 9)
	for name, run := range methodsWithPB() {
		l, b, x := buildCase(t, a.Clone(), 12, 9)
		seq := run(l, b, x, Config{Steps: 25})
		l2, b2, x2 := buildCase(t, a.Clone(), 12, 9)
		nbr := run(l2, b2, x2, Config{Steps: 25, Parallel: true, Sched: rma.SchedNeighbor})
		compareRuns(t, name, seq, nbr)
		if name != "Piggyback2016" && nbr.SchedWaits == nil {
			t.Errorf("%s: neighborhood run reported no SchedWaits tally", name)
		}
		if seq.SchedWaits != nil {
			t.Errorf("%s: sequential run reported a SchedWaits tally", name)
		}
	}
}

// TestNeighborSchedChaosIdentical: with an RNG-free fault plan (stragglers,
// per-phase spikes, rank pauses) the neighborhood scheduler still reproduces
// the sequential engine bit for bit — including watchdog/deadlock behavior
// and the chaos cost multipliers.
func TestNeighborSchedChaosIdentical(t *testing.T) {
	plan := &rma.FaultPlan{
		Seed:               42,
		Stragglers:         map[int]float64{1: 4, 5: 2.5},
		StragglerPhaseProb: 0.2,
		Pauses:             []rma.Pause{{Rank: 2, From: 2, To: 5}, {Rank: 7, From: 4, To: 6}},
	}
	a := problem.Poisson2D(26, 26)
	for name, run := range methodsWithPB() {
		l, b, x := buildCase(t, a.Clone(), 13, 5)
		seq := run(l, b, x, Config{Steps: 20, Faults: plan})
		l2, b2, x2 := buildCase(t, a.Clone(), 13, 5)
		nbr := run(l2, b2, x2, Config{Steps: 20, Parallel: true, Sched: rma.SchedNeighbor, Faults: plan})
		compareRuns(t, name+"/chaos", seq, nbr)
	}
}

// TestNeighborSchedRNGPlanFallsBack: plans with RNG-driven message faults
// (delay/dup/reorder draw from a shared stream in delivery order) cannot run
// under neighborhood pipelining; the engine silently falls back to the
// barrier discipline and stays bit-identical.
func TestNeighborSchedRNGPlanFallsBack(t *testing.T) {
	plan := &rma.FaultPlan{Seed: 7, DelayProb: 0.3, DupProb: 0.1}
	a := problem.Poisson2D(20, 20)
	l, b, x := buildCase(t, a.Clone(), 8, 3)
	seq := DistributedSouthwell(l, b, x, Config{Steps: 15, Faults: plan})
	l2, b2, x2 := buildCase(t, a.Clone(), 8, 3)
	nbr := DistributedSouthwell(l2, b2, x2, Config{Steps: 15, Parallel: true, Sched: rma.SchedNeighbor, Faults: plan})
	compareRuns(t, "DS/rng-fallback", seq, nbr)
	if nbr.SchedWaits != nil {
		t.Error("fallback run should not report a SchedWaits tally")
	}
}
