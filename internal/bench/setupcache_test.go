package bench

import (
	"sync"
	"sync/atomic"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// TestSetupCacheHitIsIdentical: a second setupFor on the same cell returns
// the identical object — same *Setup, same *Layout, same shared
// factorizations — not a rebuilt copy.
func TestSetupCacheHitIsIdentical(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	s1, err := setupFor("af_5_k101", 16, 1, dmem.LocalDirect)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := setupFor("af_5_k101", 16, 1, dmem.LocalDirect)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("cache hit returned a different *Setup")
	}
	if s1.Layout != s2.Layout {
		t.Fatal("cache hit returned a different *Layout")
	}
	for p := 0; p < s1.Layout.P; p++ {
		if s1.Factor(p) == nil || s1.Factor(p) != s2.Factor(p) {
			t.Fatalf("rank %d factorization not shared", p)
		}
	}
}

// TestSetupCacheKeys: the setup key distinguishes exactly the inputs that
// change the preprocessing (matrix, ranks, seed, local solver); the run
// memo on top of it distinguishes Faults the way runKey always has, while
// those runs still share a single setup.
func TestSetupCacheKeys(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	base, err := setupFor("af_5_k101", 16, 1, dmem.LocalGS)
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]setupKey{
		"ranks": {name: "af_5_k101", ranks: 8, seed: 1, local: dmem.LocalGS},
		"seed":  {name: "af_5_k101", ranks: 16, seed: 2, local: dmem.LocalGS},
		"local": {name: "af_5_k101", ranks: 16, seed: 1, local: dmem.LocalDirect},
	} {
		s, err := setupFor(other.name, other.ranks, other.seed, other.local)
		if err != nil {
			t.Fatal(err)
		}
		if s == base {
			t.Errorf("%s: differing %s mapped to the same setup", other.name, name)
		}
	}
	// Seed-matching GS and Direct setups share the layout-defining inputs
	// but not the factorizations; they still share the cached partition.
	direct, _ := setupFor("af_5_k101", 16, 1, dmem.LocalDirect)
	if base.Factor(0) != nil {
		t.Error("LocalGS setup carries factorizations")
	}
	if direct.Factor(0) == nil {
		t.Error("LocalDirect setup carries no factorizations")
	}

	// Faults vary the run, not the setup: runs differing only in fault plan
	// get distinct run-memo entries but one setup.
	cfgA := Config{Ranks: 16, Seed: 1}
	cfgB := Config{Ranks: 16, Seed: 1, Faults: rma.DelayPlan(1, 0.25, 3)}
	cfgC := Config{Ranks: 16, Seed: 1, Faults: rma.DelayPlan(3, 0.25, 3)}
	if cfgA.keyFor("af_5_k101", core.DistSWD, 16, 5) == cfgB.keyFor("af_5_k101", core.DistSWD, 16, 5) {
		t.Error("run key does not distinguish a fault plan from none")
	}
	if cfgB.keyFor("af_5_k101", core.DistSWD, 16, 5) == cfgC.keyFor("af_5_k101", core.DistSWD, 16, 5) {
		t.Error("run key does not distinguish fault plans")
	}
	before := memoLen(&setups)
	for _, cfg := range []Config{cfgA, cfgB, cfgC} {
		if _, err := runSuite(cfg, "af_5_k101", core.DistSWD, 16, 5); err != nil {
			t.Fatal(err)
		}
	}
	if s, _ := setupFor("af_5_k101", 16, 1, dmem.LocalGS); s != base {
		t.Error("fault variants replaced the shared setup of their cell")
	}
	if after := memoLen(&setups); after != before {
		// The GS cell was built up front (base); the three run variants
		// must all have reused it rather than building new setups.
		t.Errorf("fault variants grew the setup memo by %d, want 0", after-before)
	}
	if n := memoLen(&runs); n != 3 {
		t.Errorf("run memo holds %d entries, want 3", n)
	}
}

func memoLen[K comparable, V any](c *memo[K, V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// TestMemoBuildsOnce: callers that meet on one key share one build — the
// late ones wait for it instead of building a duplicate — and all see the
// same value.
func TestMemoBuildsOnce(t *testing.T) {
	var c memo[string, *int]
	var builds atomic.Int32
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = c.get("k", func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Errorf("caller %d saw a different value", i)
		}
	}
	c.reset()
	if p, _ := c.get("k", func() (*int, error) { return new(int), nil }); p == got[0] {
		t.Error("reset kept the old value")
	}
}

// TestSetupSharedAcrossMethodsNoMutation: every method runs concurrently
// off one LocalDirect setup; under -race this pins that no run writes to
// shared setup state, and every result stays bit-identical to a run that
// built its own setup privately.
func TestSetupSharedAcrossMethodsNoMutation(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	const name, ranks, steps = "af_5_k101", 24, 8
	methods := []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD}

	// Private baselines: fresh setup per run.
	baseline := map[core.DistMethod]*dmem.Result{}
	for _, m := range methods {
		ResetCaches()
		r, err := runSuite(Config{Ranks: ranks, Seed: 1, Local: dmem.LocalDirect}, name, m, ranks, steps)
		if err != nil {
			t.Fatal(err)
		}
		baseline[m] = r
	}

	ResetCaches()
	var wg sync.WaitGroup
	results := make([]*dmem.Result, len(methods))
	errs := make([]error, len(methods))
	for i, m := range methods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bypass the run cache's dedup by running the world directly:
			// every goroutine must really solve, all off one shared setup.
			setup, err := setupFor(name, ranks, 1, dmem.LocalDirect)
			if err != nil {
				errs[i] = err
				return
			}
			b, x := problem.ZeroBSystem(setup.Layout.A, 1)
			results[i], errs[i] = core.SolveDistributed(setup.Layout.A, b, x, core.DistOptions{
				Method: m, Ranks: ranks, Steps: steps, Setup: setup, Local: dmem.LocalDirect,
				Sched: rma.SchedNeighbor, // accepted and ignored: the inert name must not move a bit
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", methods[i], err)
		}
	}
	for i, m := range methods {
		got, want := results[i], baseline[m]
		if len(got.History) != len(want.History) {
			t.Fatalf("%s: history length %d vs %d", m, len(got.History), len(want.History))
		}
		for s := range want.History {
			if got.History[s] != want.History[s] {
				t.Fatalf("%s: step %d differs", m, s)
			}
		}
		for k := range want.X {
			if got.X[k] != want.X[k] {
				t.Fatalf("%s: solution differs at %d", m, k)
			}
		}
	}
}

// TestRunSetRerunsNothing: a run set's at(n, r, m) is the memoized run of
// names[n] at rankCounts[r] under methods[m], and a second call over the
// same set runs no solve — every cell still holds the result the first one
// stored.
func TestRunSetRerunsNothing(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := Config{Seed: 1}
	names := []string{"af_5_k101", "msdoor"}
	methods := []core.DistMethod{core.BlockJacobi, core.DistSWD}
	rankCounts := []int{8, 16}
	const steps = 5
	first, err := runSet(cfg, names, methods, rankCounts, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := len(names) * len(methods) * len(rankCounts)
	if n := memoLen(&runs); n != want {
		t.Fatalf("run set left %d memoized runs, want %d", n, want)
	}
	again, err := runSet(cfg, names, methods, rankCounts, steps)
	if err != nil {
		t.Fatal(err)
	}
	for n, name := range names {
		for r, p := range rankCounts {
			for m, method := range methods {
				cell, err := runSuite(cfg, name, method, p, steps)
				if err != nil {
					t.Fatal(err)
				}
				if first.at(n, r, m) != cell {
					t.Errorf("at(%d, %d, %d) is not the run of %s %s P=%d", n, r, m, name, method, p)
				}
				if again.at(n, r, m) != cell {
					t.Errorf("second run set re-ran %s %s P=%d", name, method, p)
				}
			}
		}
	}
	if n := memoLen(&runs); n != want {
		t.Errorf("memo holds %d runs after the second set, want %d", n, want)
	}
}
