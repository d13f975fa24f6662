package rma

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// ringNeighborhoods builds the symmetric ±1 ring used by the scheduler
// tests: every rank's post/start group is its two ring neighbors.
func ringNeighborhoods(p int) [][]int {
	nbrs := make([][]int, p)
	for r := 0; r < p; r++ {
		a, b := (r+p-1)%p, (r+1)%p
		switch {
		case a == b: // p == 2
			nbrs[r] = []int{a}
		case a < b:
			nbrs[r] = []int{a, b}
		default:
			nbrs[r] = []int{b, a}
		}
	}
	return nbrs
}

// runSchedPattern drives a deterministic ring-exchange pattern for `steps`
// RunPhases groups of `phasesPerStep` phases each on the requested engine,
// returning the per-rank received-message streams and the final stats.
func runSchedPattern(mode string, seed int64, p, steps, phasesPerStep int, plan *FaultPlan) ([][]int64, Stats) {
	w := NewWorld(p, DefaultCostModel())
	switch mode {
	case "seq":
	case "pool":
		w.Parallel = true
	case "nbr":
		w.Parallel = true
		w.Sched = SchedNeighbor
		w.SetNeighborhoods(ringNeighborhoods(p))
	default:
		panic("unknown mode " + mode)
	}
	defer w.Close()
	if plan != nil {
		w.InstallFaults(plan)
	}
	got := make([][]int64, p)
	fs := make([]func(int), phasesPerStep)
	for step := 0; step < steps; step++ {
		for k := 0; k < phasesPerStep; k++ {
			phase := step*phasesPerStep + k
			fs[k] = func(rank int) {
				for _, m := range w.Inbox(rank) {
					got[rank] = append(got[rank], int64(m.From)*1_000_000+m.Payload.(int64))
				}
				h := seed + int64(phase)*131 + int64(rank)*17
				if h%3 != 0 {
					w.Put(rank, (rank+1)%p, TagSolve, int(h%64), int64(phase)*100+int64(rank))
				}
				if h%5 != 0 {
					w.Put(rank, (rank+p-1)%p, TagResidual, int(h%32), int64(phase)*100+int64(rank)+7)
				}
				w.Charge(rank, float64(h%1000))
			}
		}
		w.RunPhases(fs...)
	}
	return got, w.Stats()
}

func assertSchedEquivalent(t *testing.T, seed int64, p, steps, phasesPerStep int, plan *FaultPlan) {
	t.Helper()
	refGot, refStats := runSchedPattern("seq", seed, p, steps, phasesPerStep, plan)
	for _, mode := range []string{"pool", "nbr"} {
		got, stats := runSchedPattern(mode, seed, p, steps, phasesPerStep, plan)
		if stats != refStats {
			t.Fatalf("p=%d seed=%d %s stats diverge:\nseq: %+v\n%s: %+v", p, seed, mode, refStats, mode, stats)
		}
		for r := range refGot {
			if len(got[r]) != len(refGot[r]) {
				t.Fatalf("p=%d seed=%d %s rank %d: got %d msgs, want %d", p, seed, mode, r, len(got[r]), len(refGot[r]))
			}
			for i := range refGot[r] {
				if got[r][i] != refGot[r][i] {
					t.Fatalf("p=%d seed=%d %s rank %d msg %d: got %d, want %d", p, seed, mode, r, i, got[r][i], refGot[r][i])
				}
			}
		}
	}
}

// The tentpole invariant: the neighborhood-epoch engine delivers the same
// message streams, the same stats, and bit-identical SimTime as the
// sequential and global-barrier engines.
func TestNeighborEngineEquivalent(t *testing.T) {
	for _, p := range []int{2, 3, 8, 33} {
		for _, phasesPerStep := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 4; seed++ {
				assertSchedEquivalent(t, seed, p, 6, phasesPerStep, nil)
			}
		}
	}
}

// Stragglers (constant and per-phase spikes) and pauses are counter-indexed
// and run natively on the neighborhood engine: stats — including SimTime
// with the straggler multipliers and the paused-rank-phase count — must
// stay bit-identical across all three engines.
func TestNeighborChaosEquivalent(t *testing.T) {
	plan := &FaultPlan{
		Seed:               42,
		Stragglers:         map[int]float64{1: 4},
		StragglerPhaseProb: 0.25,
		Pauses:             []Pause{{Rank: 2, From: 3, To: 7}, {Rank: 5, From: 5, To: 6}},
	}
	for _, p := range []int{8, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			assertSchedEquivalent(t, seed, p, 8, 2, plan)
		}
	}
}

// Plans that draw from the sequential chaos PRNG (delays, dups, reorders)
// force RunPhases back onto the barrier engine — equivalence must still
// hold, and no group may be credited to the neighborhood scheduler.
func TestNeighborRNGPlanFallsBack(t *testing.T) {
	plan := &FaultPlan{Seed: 7, DelayProb: 0.3, DelayMax: 2, DupProb: 0.1}
	assertSchedEquivalent(t, 3, 8, 8, 2, plan)

	w := NewWorld(8, DefaultCostModel())
	w.Parallel = true
	w.Sched = SchedNeighbor
	w.SetNeighborhoods(ringNeighborhoods(8))
	w.InstallFaults(plan)
	defer w.Close()
	w.RunPhases(func(rank int) {}, func(rank int) {})
	if tally := w.WaitTally(); tally != nil {
		t.Fatalf("RNG-dependent plan must fall back to the barrier engine, got wait tally %+v", tally)
	}
}

func TestSetNeighborhoodsValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	w := NewWorld(4, CostModel{})
	expectPanic("wrong length", func() { w.SetNeighborhoods(make([][]int, 3)) })
	expectPanic("self neighbor", func() {
		w.SetNeighborhoods([][]int{{1}, {1}, {3}, {2}})
	})
	expectPanic("out of range", func() {
		w.SetNeighborhoods([][]int{{4}, {0}, {3}, {2}})
	})
	expectPanic("not ascending", func() {
		w.SetNeighborhoods([][]int{{3, 1}, {0}, {3}, {0, 2}})
	})
	expectPanic("asymmetric", func() {
		w.SetNeighborhoods([][]int{{1}, {0, 2}, {}, {}})
	})
	// A valid symmetric relation (including an isolated rank) is accepted.
	w.SetNeighborhoods([][]int{{1}, {0, 2}, {1}, {}})
}

// PSCW faithfulness: under the neighborhood scheduler a Put may only target
// the registered post/start group.
func TestNeighborPutOutsideGroupPanics(t *testing.T) {
	w := NewWorld(8, DefaultCostModel())
	w.SetNeighborhoods(ringNeighborhoods(8))
	defer func() {
		if recover() == nil {
			t.Error("nbPut to a non-neighbor did not panic")
		}
	}()
	w.nbPut(0, 4, TagSolve, 8, nil)
}

func TestRunPhasesAfterCloseFailsLoudly(t *testing.T) {
	w := NewWorld(4, DefaultCostModel())
	w.Close()
	defer func() {
		if r := recover(); r != ErrClosed {
			t.Errorf("RunPhases after Close: recover() = %v, want ErrClosed", r)
		}
	}()
	w.RunPhases(func(rank int) {})
}

// Satellite: Close during an in-flight neighborhood group must release
// workers parked on neighborhood waits, make the blocked RunPhases panic
// with ErrClosed, stay idempotent, and leak no goroutines.
func TestCloseReleasesParkedWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	const p = 8
	w := NewWorld(p, DefaultCostModel())
	w.Parallel = true
	w.Sched = SchedNeighbor
	w.SetNeighborhoods(ringNeighborhoods(p))
	w.RunPhases(func(rank int) {}) // create the pool with a complete group

	gate := make(chan struct{})
	closeDone := make(chan struct{})
	go func() {
		<-gate
		w.Close()
		w.Close() // idempotent
		close(closeDone)
	}()
	var once sync.Once
	panicked := make(chan any, 1)
	func() {
		defer func() { panicked <- recover() }()
		// Rank 0 stalls inside its phase function until Close has run;
		// its neighbors' owners park on rank 0's epoch in the meantime.
		w.RunPhases(func(rank int) {
			if rank == 0 {
				once.Do(func() {
					close(gate)
					<-closeDone
				})
			}
		}, func(rank int) {})
	}()
	if got := <-panicked; got != ErrClosed {
		t.Fatalf("RunPhases closed mid-group: recover() = %v, want ErrClosed", got)
	}
	func() {
		defer func() {
			if r := recover(); r != ErrClosed {
				t.Errorf("Put after Close: recover() = %v, want ErrClosed", r)
			}
		}()
		w.Put(0, 1, TagSolve, 8, nil)
	}()
	// Every pool worker (and the closer goroutine) must exit: poll the
	// goroutine count back down to the pre-test baseline.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Close: %d live, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitTally reports counts only for worlds that actually ran neighborhood
// groups, sized by rank, with the group count exact.
func TestWaitTally(t *testing.T) {
	w := NewWorld(8, DefaultCostModel())
	w.Parallel = true
	w.Sched = SchedNeighbor
	w.SetNeighborhoods(ringNeighborhoods(8))
	defer w.Close()
	if w.WaitTally() != nil {
		t.Fatal("WaitTally non-nil before any group")
	}
	const groups = 5
	for i := 0; i < groups; i++ {
		w.RunPhases(func(rank int) {}, func(rank int) {})
	}
	tally := w.WaitTally()
	if tally == nil {
		t.Fatal("WaitTally nil after neighborhood groups")
	}
	if tally.Groups != groups {
		t.Errorf("Groups = %d, want %d", tally.Groups, groups)
	}
	if len(tally.Blocked) != 8 {
		t.Errorf("len(Blocked) = %d, want 8", len(tally.Blocked))
	}
	if tally.TotalBlocked() < 0 || tally.Parks < 0 {
		t.Errorf("negative tally: %+v", tally)
	}
}

// scaleWorld builds a P-rank neighborhood-scheduled world running the same
// two-neighbor ring exchange as the engine benchmarks, as a two-epoch group.
// Each epoch parity writes its own payload per (rank, direction) — the
// discipline the real methods follow: a buffer written in epoch a is read by
// the neighbors in a+1 and not rewritten before a+2, which a neighbor-
// scheduled sender can only start once those neighbors have run a+1.
func scaleWorld(p int) (*World, []func(int)) {
	w := NewWorld(p, DefaultCostModel())
	w.Parallel = true
	w.Sched = SchedNeighbor
	w.SetNeighborhoods(ringNeighborhoods(p))
	payloads := make([][2][2]benchPayload, p)
	for r := range payloads {
		for par := range payloads[r] {
			for d := range payloads[r][par] {
				payloads[r][par][d].vals = make([]float64, 8)
			}
		}
	}
	phase := func(parity int) func(int) {
		return func(rank int) {
			sum := 0.0
			for _, m := range w.Inbox(rank) {
				sum += m.Payload.(*benchPayload).norm
			}
			for d := 0; d < 2; d++ {
				pl := &payloads[rank][parity][d]
				pl.norm = sum + float64(rank+d)
				to := rank + 1
				if d == 1 {
					to = rank - 1 + p
				}
				w.Put(rank, to%p, TagSolve, 8*len(pl.vals)+16, pl)
			}
			w.Charge(rank, 100)
		}
	}
	return w, []func(int){phase(0), phase(1)}
}

// TestScaleAllocGate pins the steady-state allocation count of one
// neighborhood-scheduled RunPhases group at zero: the arena-reused staging
// rings, inbox buffers, group buffers, and waiter lists must make the
// scheduler allocation-free after warmup — the property that keeps P=8192
// runs CI-feasible. The straggler case installs a slowdown-only fault plan,
// under which every rank asks the plan "am I paused?" and "how slow am I?"
// once per epoch.
func TestScaleAllocGate(t *testing.T) {
	for _, plan := range []*FaultPlan{nil, stragglerPlan()} {
		name := "NbrGroup"
		if plan != nil {
			name = "StragglerGroup"
		}
		w, fs := scaleWorld(256)
		w.InstallFaults(plan)
		for i := 0; i < 4; i++ { // warm buffers, pool, and parking slots
			w.RunPhases(fs...)
		}
		got := testing.AllocsPerRun(50, func() {
			w.RunPhases(fs...)
		})
		w.Close()
		if got != 0 {
			t.Errorf("%s allocates %.1f allocs/op in steady state, want 0", name, got)
		}
	}
}

func BenchmarkScalePhases(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run("nbr/P="+itoa(p), func(b *testing.B) {
			w, fs := scaleWorld(p)
			defer w.Close()
			w.RunPhases(fs...)
			w.RunPhases(fs...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunPhases(fs...)
			}
		})
	}
}

// itoa avoids pulling strconv into the test just for benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
