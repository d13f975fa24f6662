package bench

import (
	"fmt"
	"testing"

	"southwell/internal/core"
)

// BenchmarkSuiteDS measures cold Distributed Southwell runs over the quick
// suite (the three-matrix smoke configuration) — the unit of work every
// table row performs. The par variant exercises the bounded-concurrency
// driver (prefetch).
func BenchmarkSuiteDS(b *testing.B) {
	for _, v := range []struct {
		name string
		par  int
	}{
		{"seq", 1},
		{"par4", 4},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := quickCfg()
			cfg.Par = v.par
			jobs := suiteJobs(cfg.suiteNames(), []core.DistMethod{core.DistSWD}, []int{cfg.ranks()}, 50)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ResetCaches()
				if err := prefetch(cfg, jobs); err != nil {
					b.Fatal(err)
				}
				for _, j := range jobs {
					if _, err := runSuite(cfg, j.name, j.method, j.ranks, j.steps); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestForEachPar checks the bounded fan-out helper: every index runs
// exactly once and the lowest-index error wins.
func TestForEachPar(t *testing.T) {
	for _, par := range []int{0, 1, 3, 8, 100} {
		hits := make([]int, 37)
		if err := forEachPar(par, len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("par=%d: index %d ran %d times", par, i, h)
			}
		}
	}
	wantErr := fmt.Errorf("boom")
	err := forEachPar(4, 10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if err.Error() != "boom at 3" {
		t.Fatalf("want lowest-index error, got %v (not %v-style)", err, wantErr)
	}
}
