package bench

import (
	"fmt"
	"strings"
	"testing"

	"southwell/internal/core"
)

// BenchmarkSuiteDS measures cold Distributed Southwell runs over the quick
// suite (the three-matrix smoke configuration) — the unit of work every
// table row performs — as one run set at width 1 and at width 4.
func BenchmarkSuiteDS(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := quickCfg()
			b.ReportAllocs()
			atWidth(w, func() {
				for i := 0; i < b.N; i++ {
					ResetCaches()
					if _, err := runSet(cfg, cfg.suiteNames(), []core.DistMethod{core.DistSWD}, []int{cfg.ranks()}, 50); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestRunSetLowestIndexError: a run set with failing runs returns the error
// of the lowest-index one at every width, whichever finishes first. Every
// run of "nope2" and "nope1" fails; block order puts "nope2" first, so its
// error must win though its name sorts after the other.
func TestRunSetLowestIndexError(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := Config{Seed: 1}
	names := []string{"af_5_k101", "nope2", "nope1"}
	methods := []core.DistMethod{core.BlockJacobi, core.DistSWD}
	for _, w := range []int{1, 2, 4, 7} {
		atWidth(w, func() {
			_, err := runSet(cfg, names, methods, []int{8}, 3)
			if err == nil || !strings.Contains(err.Error(), `"nope2"`) {
				t.Errorf("width %d: got %v, want the error of nope2, the lowest failing index", w, err)
			}
		})
	}
}
