package dmem

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"southwell/internal/obs"
	"southwell/internal/parallel"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// reuseCase builds a small problem, the layout NewLayout returned for it,
// its setup for the given local solver, and a second (b, x) draw on the
// same matrix.
func reuseCase(t testing.TB, grid, ranks int, local LocalSolver) (s *Setup, l *Layout, b, x, b2, x2 []float64) {
	t.Helper()
	gs, b, x := buildCase(t, problem.Poisson2D(grid, grid), ranks, 8)
	l = gs.Layout
	s = fresh(t, l, local)
	b2, x2 = problem.ZeroBSystem(l.A, 9)
	for i := range b2 {
		b2[i] = float64(i%7) - 3 // a nonzero right-hand side as well
	}
	return s, l, b, x, b2, x2
}

// fresh is a new Setup of layout l and the given local solver, with no run
// state parked on it. l is the layout NewLayout returned: a direct Setup's
// own keeps no local couplings to build another Setup from.
func fresh(t testing.TB, l *Layout, local LocalSolver) *Setup {
	t.Helper()
	f, err := NewSetup(l, local)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSetupReuseInvisible: every solve on one Setup — whatever ran on its
// parked run state before — equals the same call made on a fresh Setup. The
// rows run in order on one state: every method, a fault plan, a tracer
// (trace bytes compared too), a pinned variant,
// another system, a zero start (r₀ = b, read without A), an early stop, and
// DS again at the end.
func TestSetupReuseInvisible(t *testing.T) {
	ds := func(opts DistSWOptions) method {
		return func(s *Setup, b, x []float64, cfg Config) *Result {
			return DistributedSouthwellOpt(s, b, x, cfg, opts)
		}
	}
	for _, local := range []LocalSolver{LocalGS, LocalDirect} {
		t.Run(local.String(), func(t *testing.T) {
			s, l, b, x, b2, x2 := reuseCase(t, 28, 28, local)
			var first *runState
			for _, row := range []struct {
				name   string
				run    method
				cfg    Config
				other  bool // solve the second system
				zero   bool // ... from x₀ = 0
				traced bool
			}{
				{name: "DS", run: DistributedSouthwell},
				{name: "PS", run: ParallelSouthwell},
				{name: "BJ", run: BlockJacobi},
				{name: "Piggyback2016", run: Piggyback2016, cfg: Config{Steps: 500}},
				{name: "DS dense", run: DistributedSouthwell, cfg: Config{Dense: true}},
				{name: "DS chaos", run: DistributedSouthwell, cfg: Config{Faults: fullChaosPlan(7)}},
				{name: "DS traced", run: DistributedSouthwell, traced: true},
				{name: "DS slack 0.1", run: ds(DistSWOptions{UpdateSlack: 0.1})},
				{name: "DS other system", run: DistributedSouthwell, other: true},
				{name: "DS zero start", run: DistributedSouthwell, other: true, zero: true},
				{name: "PS zero start", run: ParallelSouthwell, other: true, zero: true},
				{name: "DS target", run: DistributedSouthwell, cfg: Config{Target: 0.5}},
				{name: "DS again", run: DistributedSouthwell},
			} {
				cfg := row.cfg
				if cfg.Steps == 0 {
					cfg.Steps = 20
				}
				rb, rx := b, x
				if row.other {
					rb, rx = b2, x2
				}
				if row.zero {
					rx = make([]float64, len(x2))
				}
				var recs [2]*obs.Recorder
				var res [2]*Result
				for i, setup := range []*Setup{fresh(t, l, s.Local), s} {
					c := cfg
					if row.traced {
						recs[i] = obs.NewRecorder(s.Layout.P)
						c.Trace = recs[i]
					}
					res[i] = row.run(setup, rb, rx, c)
				}
				compareRuns(t, row.name, res[0], res[1])
				if row.traced {
					var want, got bytes.Buffer
					if err := recs[0].WriteTrace(&want); err != nil {
						t.Fatal(err)
					}
					if err := recs[1].WriteTrace(&got); err != nil {
						t.Fatal(err)
					}
					if want.Len() == 0 || !bytes.Equal(want.Bytes(), got.Bytes()) {
						t.Errorf("%s: trace bytes differ on a reused state (%d vs %d bytes)", row.name, got.Len(), want.Len())
					}
				}
				switch row.name {
				case "Piggyback2016":
					if local == LocalGS && !res[1].Deadlocked {
						t.Errorf("%s did not deadlock: the watchdog-stop row tests nothing", row.name)
					}
				case "DS target":
					if n := len(res[1].History) - 1; n == 0 || n >= cfg.Steps {
						t.Errorf("%s ran %d of %d steps: the early-stop row tests nothing", row.name, n, cfg.Steps)
					}
				}
				// The rows really share one state.
				if first == nil {
					first = s.parked
				}
				if s.parked == nil || s.parked != first {
					t.Fatalf("%s: parked state %p, want the first solve's %p", row.name, s.parked, first)
				}
			}
		})
	}
}

// TestSetupConcurrentRuns: concurrent solves on one Setup never share a run
// state — one takes the parked state, the others build their own — and all
// equal the reference. Run under -race via `make race`.
func TestSetupConcurrentRuns(t *testing.T) {
	s, l, b, x, _, _ := reuseCase(t, 24, 8, LocalDirect)
	want := DistributedSouthwell(fresh(t, l, s.Local), b, x, Config{Steps: 15})
	for _, procs := range []int{2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		results := make([][3]*Result, 4)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range results[g] {
					results[g][i] = DistributedSouthwell(s, b, x, Config{Steps: 15})
				}
			}(g)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for g := range results {
			for _, got := range results[g] {
				compareRuns(t, "concurrent", want, got)
			}
		}
		if s.parked == nil {
			t.Error("no run state parked after concurrent solves")
		}
	}
}

// TestParkedStateHoldsNoGoroutines: a solve runs its phases on the calling
// goroutine and starts none, so a Setup with a parked state owns no
// goroutine.
func TestParkedStateHoldsNoGoroutines(t *testing.T) {
	s, l, b, x, _, _ := reuseCase(t, 24, 8, LocalGS)
	DistributedSouthwell(fresh(t, l, s.Local), b, x, Config{Steps: 5}) // start whatever outlives solves by design
	before := runtime.NumGoroutine()
	DistributedSouthwell(s, b, x, Config{Steps: 5})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the solve returned, %d before it", n, before)
	}
	if s.parked == nil {
		t.Fatal("no parked state: the test observes nothing")
	}
}

// TestParkedStateKeepsNothingOfTheCaller: between solves the parked world
// holds no tracer, no fault plan and no window contents, so the caller's
// recorder and plan are collectable while the Setup lives. (The world keeps
// a copy of the plan's three numbers for the run, never the caller's
// pointer.)
func TestParkedStateKeepsNothingOfTheCaller(t *testing.T) {
	s, _, b, x, _, _ := reuseCase(t, 24, 8, LocalGS)
	var freed [2]atomic.Bool
	func() {
		rec := obs.NewRecorder(s.Layout.P)
		runtime.SetFinalizer(rec, func(*obs.Recorder) { freed[0].Store(true) })
		plan := fullChaosPlan(7)
		runtime.SetFinalizer(plan, func(*rma.FaultPlan) { freed[1].Store(true) })
		DistributedSouthwell(s, b, x, Config{Steps: 20, Trace: rec, Faults: plan})
	}()
	st := s.parked
	if st == nil {
		t.Fatal("no parked state")
	}
	if st.w.Tracer() != nil || st.w.InFlight() != 0 || st.eng.hist != nil || st.eng.calendar != nil {
		t.Errorf("parked state: tracer %v, %d held messages, hist %v, calendar %v", st.w.Tracer(), st.w.InFlight(), st.eng.hist, st.eng.calendar)
	}
	for p := 0; p < s.Layout.P; p++ {
		if n := len(st.w.Inbox(p)); n != 0 {
			t.Errorf("parked world: rank %d's window still holds %d messages", p, n)
		}
	}
	for i := 0; i < 5 && !(freed[0].Load() && freed[1].Load()); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if !freed[0].Load() || !freed[1].Load() {
		t.Errorf("parked state keeps the caller's tracer (freed %v) or fault plan (freed %v) alive", freed[0].Load(), freed[1].Load())
	}
	runtime.KeepAlive(s)
}

// TestPanickedSolveIsNotParked: a solve that panics midway must leave the
// slot empty — not hand its half-stepped state to the next solve — and the
// next solve must be clean.
func TestPanickedSolveIsNotParked(t *testing.T) {
	s, l, b, x, _, _ := reuseCase(t, 24, 8, LocalGS)
	want := DistributedSouthwell(fresh(t, l, s.Local), b, x, Config{Steps: 10})
	DistributedSouthwell(s, b, x, Config{Steps: 10})
	if s.parked == nil {
		t.Fatal("clean solve did not park its state")
	}
	records := 0
	debugHook = func(*rma.World, []*rankState) {
		if records++; records == 3 { // step 2's record
			panic("boom")
		}
	}
	func() {
		defer func() {
			debugHook = nil
			if recover() == nil {
				t.Fatal("solve did not panic")
			}
		}()
		DistributedSouthwell(s, b, x, Config{Steps: 10})
	}()
	if s.parked != nil {
		t.Fatal("a panicked solve parked its half-stepped state")
	}
	compareRuns(t, "after panic", want, DistributedSouthwell(s, b, x, Config{Steps: 10}))
	if s.parked == nil {
		t.Error("the solve after the panic did not park its state")
	}
}

// solveCost is the malloc count and allocated bytes of one call of f.
func solveCost(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

var allocSink []byte

// classBytes is what one n-byte allocation costs: n rounded up to the
// allocator's size class.
func classBytes(n uint64) uint64 {
	_, bytes := solveCost(func() { allocSink = make([]byte, n) })
	allocSink = nil
	return bytes
}

// TestSolveReuseAllocCeiling: a solve on a parked state allocates only what
// escapes to the caller — the solution vector (8·N bytes), the step history
// (one allocation of StepStats records, budgeted at its size class) and the
// active-set histogram, each made once at its final size — plus the result
// and the method's phase closures: at most 40 mallocs, and the bytes of
// exactly those, with 4 KiB for the result, the closures and X's page
// rounding (1.6–2.8 KiB measured). A run that stops early keeps its
// history's unused capacity (the watchdog stops pb16 within a few steps),
// and that is budgeted too. The 300-step row is pointload2k's budget, where
// a history grown by append would leave tens of KB of dead capacity, far
// past the slack. That holds whichever method ran on the
// state before (the message bodies belong to the state, not to a method),
// and each solve still equals the same call on a fresh Setup.
func TestSolveReuseAllocCeiling(t *testing.T) {
	const ranks, slack = 64, 4 << 10
	stepStats := uint64(reflect.TypeOf(StepStats{}).Size())
	s, l, b, x, _, _ := reuseCase(t, 100, ranks, LocalGS)
	DistributedSouthwell(s, b, x, Config{Steps: 30}) // builds and parks the state
	for _, row := range []struct {
		name  string
		run   method
		steps int
	}{
		{"DS after DS", DistributedSouthwell, 30},
		{"PS after DS", ParallelSouthwell, 30},
		{"BJ after PS", BlockJacobi, 30},
		{"pb16 after BJ", Piggyback2016, 30},
		{"DS after pb16", DistributedSouthwell, 30},
		{"DS, 300 steps", DistributedSouthwell, 300},
	} {
		cfg := Config{Steps: row.steps}
		var res *Result
		mallocs, bytes := solveCost(func() { res = row.run(s, b, x, cfg) })
		unused := uint64(row.steps + 1 - len(res.History)) // stopped early: History's capacity is the step budget
		history := classBytes((uint64(len(res.History))+unused)*stepStats) + 8*uint64(len(res.ActiveHist))
		if limit := uint64(8*s.Layout.A.N) + history + slack; mallocs > 40 || bytes > limit {
			t.Errorf("%s: solve on the parked state made %d mallocs / %d bytes, want ≤ 40 / ≤ %d", row.name, mallocs, bytes, limit)
		}
		compareRuns(t, row.name, row.run(fresh(t, l, s.Local), b, x, cfg), res)
	}
}

// TestFirstSolveAllocCeiling: the slab promise — the first solve on a Setup,
// which builds its run state, stays under one malloc ceiling whatever the
// rank count — and on the benchmark's wide4k shape (mean degree 23, so its
// phases outgrow the flat message arrays' first allocation) it makes tens of
// mallocs: 43–47 measured, 11 462 when every rank grew its own window and
// staging buffers; the ceiling is that + 10 %.
func TestFirstSolveAllocCeiling(t *testing.T) {
	grid := problem.Poisson2D(100, 100)
	flan := suiteMatrix(t, "Flan_1565")
	for _, c := range []struct {
		name    string
		a       *sparse.CSR
		ranks   int
		seed    int64
		steps   int
		ceiling uint64
	}{
		{"grid/64", grid, 64, 3, 30, 80},
		{"grid/256", grid, 256, 3, 30, 80},
		{"wide4k", flan, 4096, 1, 20, 52},
	} {
		s, b, x := buildCase(t, c.a, c.ranks, c.seed)
		mallocs, _ := solveCost(func() { DistributedSouthwell(s, b, x, Config{Steps: c.steps}) })
		if mallocs > c.ceiling {
			t.Errorf("%s: first solve made %d mallocs, want ≤ %d", c.name, mallocs, c.ceiling)
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLayoutAllocCeiling: NewLayout allocates each kind of array once, flat,
// at its exact size, and nothing per rank: a fixed number of mallocs whatever
// P is, the bytes one call allocates (its scratch included), and what a
// layout retains — the live heap after a GC, minus before — on the
// benchmark's four shapes. The literals were measured at pool width 1, plus
// 2 %. The per-rank layout this replaced made 13 mallocs per rank and
// retained 6.48 / 11.57 / 7.10 / 6.08 MB on those shapes; the flat one
// retained 5.62 / 8.33 / 5.15 / 5.35 MB while it also kept the ext slots'
// global ids and every rank's slot in its neighbors' lists, 5.38 / 7.14 /
// 4.89 / 5.23 MB (34 mallocs) while it kept a split-CSR copy of A's
// off-diagonal entries instead of one target per entry, and 2.14 / 3.89 /
// 2.51 / 1.99 MB (29 mallocs; 569 840 / 617 776 / 5 164 656 bytes a call on
// the three grids below) while it kept that target per entry of A, and
// 0.50 / 2.24 / 1.20 / 0.35 MB (27 mallocs; 324 032 / 371 968 / 3 444 288
// bytes a call) while it kept a copy of each row's diagonal.
func TestLayoutAllocCeiling(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.Default().Workers())
	parallel.SetDefaultWorkers(1)
	const maxMallocs = 26
	grid := problem.Poisson2D(100, 100)
	for _, c := range []struct {
		a       *sparse.CSR
		ranks   int
		ceiling uint64
	}{{grid, 64, 242_128}, {grid, 256, 290_064}, {suiteMatrix(t, "Flan_1565"), 4096, 3_296_848}} {
		part := partition.Partition(c.a, c.ranks, partition.Options{Seed: 3})
		mallocs, bytes := solveCost(func() {
			if _, err := NewLayout(c.a, part, c.ranks); err != nil {
				t.Fatal(err)
			}
		})
		if bytes > c.ceiling+c.ceiling/50 || mallocs > maxMallocs {
			t.Errorf("P=%d: NewLayout made %d mallocs / %d bytes, want ≤ %d / ≤ %d (+2%%)", c.ranks, mallocs, bytes, maxMallocs, c.ceiling)
		}
	}
	ceilings := map[string]uint64{"suite256": 348_632, "wide4k": 2_096_808, "pointload2k": 679_560, "direct64": 198_408}
	for _, c := range e2eShapes() {
		h0 := liveHeap()
		l, err := NewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		kept := liveHeap() - h0
		runtime.KeepAlive(l)
		if ceiling := ceilings[c.name]; kept > ceiling+ceiling/50 {
			t.Errorf("%s: a layout retains %d bytes, want ≤ %d (+2%%)", c.name, kept, ceiling)
		}
	}
}

// TestLayoutRetainedAllocCeiling: what a layout keeps, counted array by
// array — every slice field of Layout at its capacity, so a field added
// back is counted without touching this test — on the benchmark's four
// shapes, at most the measured bytes + 1 %. Before each exchange plan was
// stored once (no ext slots' global ids, no slots in the neighbors' lists)
// the same sum read 5 575 200 / 8 249 928 / 5 072 368 / 5 313 848; before
// one target per entry of A replaced the split-CSR copy of its off-diagonal
// entries (8 B less per such entry, 4 B less per row), 5 345 400 /
// 7 066 292 / 4 824 536 / 5 196 912; before the sweep ran in A's own
// numbering and the targets went (4 B less per entry of A), 2 125 136 /
// 3 846 028 / 2 473 424 / 1 976 648; before the sweep read a_ii from A
// instead of a copy of each row's (8 B less per row), 479 856 / 2 200 748 /
// 1 166 800 / 331 368.
func TestLayoutRetainedAllocCeiling(t *testing.T) {
	ceilings := map[string]int{"suite256": 339_248, "wide4k": 2_060_140, "pointload2k": 642_512, "direct64": 190_760}
	for _, c := range e2eShapes() {
		l, err := NewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		v, kept := reflect.ValueOf(l).Elem(), 0
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				kept += f.Cap() * int(f.Type().Elem().Size())
			}
		}
		if ceiling := ceilings[c.name]; kept > ceiling+ceiling/100 {
			t.Errorf("%s: the layout's arrays hold %d bytes, want ≤ %d (+1%%)", c.name, kept, ceiling)
		}
	}
}

// TestSetupRetainedAllocCeiling: what NewLayout + NewSetup keep once the
// caller drops its layout — the live heap after a GC, minus before — on the
// benchmark's four shapes, with LocalDirect on direct64 as the benchmark
// runs it, at pool widths 1 and 2. A direct Setup keeps each local block
// once, as its factor: with the layout's split-CSR copy of the blocks as
// well, direct64 read 12 371 672 bytes at both widths. Each ceiling is the
// reading + 1 %, so the layout a Setup keeps (the caller's own) cannot
// bring the targets or a diagonal back, nor a copy of A's values. With that copy (split CSR) the GS shapes read 5 395 696 /
// 7 135 144 / 4 890 536 bytes at width 1. Run alone at one scheduler
// thread, width 2 once read 7 458 776 on pointload2k: a finished region's
// queued pool entry kept NewLayout's scratch alive (the pool now queues a
// handle that Run clears). With the layout's target per entry of A the GS
// shapes read 2 144 400 / 3 907 512 / 2 523 064 at width 1 and 2 143 928 /
// 3 907 608 / 2 523 072 at width 2; direct64 did not move when it went.
// With the layout's copy of each row's diagonal, which a direct Setup
// already dropped, the GS shapes read 497 776 / 2 260 888 / 1 212 312 at
// width 1 and 497 304 / 2 260 984 / 1 212 320 at width 2. The literals are
// the largest of four readings.
func TestSetupRetainedAllocCeiling(t *testing.T) {
	ceilings := map[string][2]uint64{
		"suite256":    {350_304, 349_816},
		"wide4k":      {2_113_304, 2_113_288},
		"pointload2k": {687_880, 687_976},
		"direct64":    {8_493_288, 8_493_288},
	}
	defer parallel.SetDefaultWorkers(parallel.Default().Workers())
	for w, width := range []int{1, 2} {
		parallel.SetDefaultWorkers(width)
		for _, c := range e2eShapes() {
			local := LocalGS
			if c.name == "direct64" {
				local = LocalDirect
			}
			h0 := liveHeap()
			s := func() *Setup {
				l, err := NewLayout(c.a, c.part, c.p)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSetup(l, local)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}()
			kept := liveHeap() - h0
			runtime.KeepAlive(s)
			t.Logf("%s at pool width %d: a Setup keeps %d bytes", c.name, width, kept)
			if ceiling := ceilings[c.name][w]; kept > ceiling+ceiling/100 {
				t.Errorf("%s at pool width %d: a Setup keeps %d bytes, want ≤ %d (+1%%)", c.name, width, kept, ceiling)
			}
		}
	}
}

// TestParkedStateAllocCeiling: what a Setup keeps between solves on the
// benchmark's four shapes — the live heap after its first DS solve, at the
// workload's step budget, minus before. On wide4k this procedure measured
// 33 825 568 bytes with the per-rank layout, 33 489 256 with per-rank message
// buffers, 29 302 856–29 303 696 with the flat staging and window arrays,
// 27 583 392 with solve bodies that are the sender's extDelta rows instead
// of a copy of them, 26 305 408 with one window array instead of two, and
// 18 899 480 with 32-byte bodies that name their floats by offset (from
// 26 305 016; suite256 2 744 976 → 2 450 128, pointload2k 6 098 680 →
// 5 099 304, direct64 1 394 176 → 1 336 880). The ceiling is that reading
// + 1 %, so nothing taken out of the layout, the world or the run-state slab
// reappears. The engine's admitted buffer (4·P bytes) since read 2 451 152 /
// 18 915 864 / 5 107 496 / 1 337 168, inside the 1 %, and the new parts of
// coarsen-once partitioning 2 459 344 / 18 915 864 / 5 107 496 / 1 300 240.
// A rank state's pointer to a direct Setup's external couplings (8·P bytes)
// then read 2 459 344 / 18 948 648 / 5 123 880 / 1 300 240. The sweep in A's
// own numbering adds the ext slots' global ids (runState.extGlob, 4 B a
// slot: +220 448 / +813 316 / +197 960 / +111 008 B before page rounding)
// and nothing else at width 1, whose one accumulator is reset's scratch for
// b − Ax; a rank state's pointer to its run state replaced the one to the
// external couplings. The layout lost 4 B per entry of A for it (−1 645 280
// B on the three Flan shapes, −1 306 624 on pointload2k), so layout plus
// parked state is lower on every GS shape. The literals are the largest of
// five readings: suite256's vary by about 37 KB from one binary to the
// next.
func TestParkedStateAllocCeiling(t *testing.T) {
	ceilings := map[string]uint64{"suite256": 2_680_600, "wide4k": 19_767_872, "pointload2k": 5_328_704, "direct64": 1_414_984}
	steps := map[string]int{"suite256": 50, "wide4k": 20, "pointload2k": 300, "direct64": 50}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range e2eShapes() {
		local := LocalGS
		if c.name == "direct64" {
			local = LocalDirect
		}
		l, err := NewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSetup(l, local)
		if err != nil {
			t.Fatal(err)
		}
		b, x := problem.ZeroBSystem(c.a, 1)
		h0 := liveHeap()
		DistributedSouthwell(s, b, x, Config{Steps: steps[c.name]})
		kept := liveHeap() - h0
		if s.parked == nil {
			t.Fatalf("%s: no run state parked: the test measures nothing", c.name)
		}
		t.Logf("%s: the parked run state holds %d bytes", c.name, kept)
		t.Logf("%s: the parked run state holds %d bytes", c.name, kept)
		if ceiling := ceilings[c.name]; kept > ceiling+ceiling/100 {
			t.Errorf("%s: the parked run state holds %d bytes, want ≤ %d (+1%%)", c.name, kept, ceiling)
		}
	}
}

// TestPayloadIsAHeader: a message body is a 32-byte header of floats and
// int32s — no slice, pointer or interface — so its floats stay in the
// run state's slab and a slice header cannot quietly come back.
func TestPayloadIsAHeader(t *testing.T) {
	typ := reflect.TypeOf(payload{})
	if typ.Size() != 32 {
		t.Errorf("payload is %d bytes, want 32", typ.Size())
	}
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() != reflect.Float64 && f.Type.Kind() != reflect.Int32 {
			t.Errorf("payload.%s is a %s, want float64 or int32", f.Name, f.Type)
		}
	}
}

// TestRunStateRefusesOversizedSlab: bodies name their floats by int32
// offset, so newRunState refuses a slab of 2³¹ floats or more before it
// allocates anything. The slab holds one float per row (r; the iterate is
// a vector of its own), so n = 2³¹ is the smallest layout without
// neighbors that overflows it.
func TestRunStateRefusesOversizedSlab(t *testing.T) {
	zero := []int32{0}
	l := &Layout{A: &sparse.CSR{N: 1 << 31}, rowOff: zero, nbrOff: zero, extOff: zero, bndOff: zero}
	defer func() {
		err, _ := recover().(error)
		if err == nil || err.Error() != "dmem: the run state's floats = 2147483648 does not fit the layout's 32-bit indices" {
			t.Errorf("newRunState on a 2³¹-float slab: recovered %v", err)
		}
	}()
	newRunState(&Setup{Layout: l})
}
