package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// widths are the For widths the sweeping tests below run at.
var widths = []int{1, 2, 4, 7}

// atWidth runs f with For's width set to w, restoring the width after.
func atWidth(w int, f func()) {
	defer SetDefaultWorkers(Workers())
	SetDefaultWorkers(w)
	f()
}

// runCounts runs a region through For and verifies every block executes
// exactly once.
func runCounts(t *testing.T, nblocks int) {
	t.Helper()
	counts := make([]int32, nblocks)
	For(nblocks, func(b int) { atomic.AddInt32(&counts[b], 1) })
	for b, c := range counts {
		if c != 1 {
			t.Fatalf("width %d, nblocks %d: block %d ran %d times", Workers(), nblocks, b, c)
		}
	}
}

// TestPoolRun: at every width, a region runs each of its blocks once.
func TestPoolRun(t *testing.T) {
	for _, w := range widths {
		atWidth(w, func() {
			for _, nb := range []int{1, 2, 3, 8, 64, 200} {
				runCounts(t, nb)
			}
		})
	}
}

// TestPoolRunReuseTask passes one f to a hundred regions in a row: For
// keeps no state between calls, so each region's sum starts from zero.
func TestPoolRunReuseTask(t *testing.T) {
	defer SetDefaultWorkers(Workers())
	SetDefaultWorkers(4)
	var sum int64
	f := func(b int) { atomic.AddInt64(&sum, int64(b)) }
	for iter := 0; iter < 100; iter++ {
		atomic.StoreInt64(&sum, 0)
		For(32, f)
		if got := atomic.LoadInt64(&sum); got != 31*32/2 {
			t.Fatalf("iter %d: sum = %d, want %d", iter, got, 31*32/2)
		}
	}
}

// TestPoolRunReuseTaskResize passes one f to regions of very different
// block counts, large to small, at width 7. counts is sized to the current
// region, so a goroutine of an earlier region still claiming blocks after
// For returned would index past it or double-count.
func TestPoolRunReuseTaskResize(t *testing.T) {
	defer SetDefaultWorkers(Workers())
	SetDefaultWorkers(7)
	sizes := []int{257, 3, 64, 1, 200, 2, 31}
	var counts []int32
	f := func(b int) { atomic.AddInt32(&counts[b], 1) }
	for iter := 0; iter < 500; iter++ {
		nb := sizes[iter%len(sizes)]
		counts = make([]int32, nb)
		For(nb, f)
		for b, c := range counts {
			if c != 1 {
				t.Fatalf("iter %d nb=%d: block %d ran %d times", iter, nb, b, c)
			}
		}
	}
}

// TestForWidthOneRunsInline: at width 1, and for a single block at any
// width, For calls f on the calling goroutine in ascending block order and
// starts no goroutine.
func TestForWidthOneRunsInline(t *testing.T) {
	for _, c := range []struct{ w, nb int }{{1, 1}, {1, 9}, {4, 1}, {7, 1}} {
		atWidth(c.w, func() {
			base := runtime.NumGoroutine()
			var order []int
			For(c.nb, func(b int) {
				if g := runtime.NumGoroutine(); g > base {
					t.Errorf("width %d, %d blocks: %d goroutines inside the region, %d before", c.w, c.nb, g, base)
				}
				order = append(order, b)
			})
			for b := 0; b < c.nb; b++ {
				if len(order) != c.nb || order[b] != b {
					t.Fatalf("width %d, %d blocks: ran %v, want 0..%d ascending", c.w, c.nb, order, c.nb-1)
				}
			}
		})
	}
}

// TestForLeavesNoGoroutine: after For returns, the goroutine count is back
// where it was. A goroutine that has signalled its end may still be on its
// way out when For returns, so the count gets a second to settle; one that
// For left parked or running never does. Goroutines of earlier tests may
// still be leaving when the baseline is read, so the count may also end
// below it.
func TestForLeavesNoGoroutine(t *testing.T) {
	for _, w := range widths {
		atWidth(w, func() {
			base := runtime.NumGoroutine()
			for _, nb := range []int{2, 7, 64} {
				runCounts(t, nb)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if g := runtime.NumGoroutine(); g > base {
				t.Errorf("width %d: %d goroutines after For returned, %d before", w, g, base)
			}
		})
	}
}

func TestRunNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("For with nil f did not panic")
		}
	}()
	For(3, nil)
}

func TestRunZeroBlocks(t *testing.T) {
	for _, w := range widths {
		atWidth(w, func() {
			For(0, func(int) { t.Error("block ran for nblocks=0") })
			For(-3, func(int) { t.Error("block ran for nblocks=-3") })
		})
	}
}

// TestFinishedRegionKeepsNothing: once For returns, nothing of the region
// keeps its closure, or the buffer the closure captures, reachable. At one
// scheduler thread a width-2 region's second goroutine does not start
// before the caller has run every block itself, the case in which a queued
// hand-off could have outlived the region.
func TestFinishedRegionKeepsNothing(t *testing.T) {
	defer SetDefaultWorkers(Workers())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	SetDefaultWorkers(2)
	buf := weak.Make(func() *[1 << 16]byte {
		buf := new([1 << 16]byte)
		For(4, func(b int) { buf[b]++ })
		return buf
	}())
	runtime.GC()
	if buf.Value() != nil {
		t.Error("a finished region's closure keeps its captured buffer reachable")
	}
}

// TestConcurrentRun drives regions from eight competing goroutines at
// every width; with the race detector this exercises concurrent callers,
// each with its own block counter and goroutines.
func TestConcurrentRun(t *testing.T) {
	for _, w := range widths {
		atWidth(w, func() {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					counts := make([]int32, 40)
					for iter := 0; iter < 50; iter++ {
						for i := range counts {
							counts[i] = 0
						}
						For(len(counts), func(b int) { atomic.AddInt32(&counts[b], 1) })
						for b := range counts {
							if counts[b] != 1 {
								t.Errorf("width %d: block %d ran %d times", w, b, counts[b])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(Workers())
	SetDefaultWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers = %d after SetDefaultWorkers(3)", got)
	}
	SetDefaultWorkers(1)
	if got := Workers(); got != 1 {
		t.Fatalf("Workers = %d after SetDefaultWorkers(1)", got)
	}
	SetDefaultWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers = %d after SetDefaultWorkers(0), want GOMAXPROCS = %d", got, want)
	}
	runCounts(t, 10)
}

// TestDeterministicReduction is the contract in miniature: a partial-sum
// reduction over a fixed block count, combined in block order, gives the
// same bits at every width.
func TestDeterministicReduction(t *testing.T) {
	n := 100000
	xs := make([]float64, n)
	v := 1.0
	for i := range xs {
		// A deterministic, poorly-conditioned sequence (no rand in this
		// package's tests: detrand lints it).
		v = v*1.0000001 + 1e-7
		xs[i] = v
	}
	const nb = 64

	reduce := func() float64 {
		partial := make([]float64, nb)
		For(nb, func(b int) {
			s := 0.0
			for _, x := range xs[b*n/nb : (b+1)*n/nb] {
				s += x * x
			}
			partial[b] = s
		})
		sum := 0.0
		for _, s := range partial {
			sum += s
		}
		return sum
	}

	var ref float64
	for i, w := range widths {
		var got float64
		atWidth(w, func() { got = reduce() })
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("width %d: sum %x differs from width-1 sum %x", w, got, ref)
		}
	}
}

// TestForBlocksShareOnceBuilds: blocks that meet on a sync.Once build, the
// way the experiment driver's run sets meet in its memo, finish at every
// width, and each build runs once. A build runs a nested region of its
// own, as a set-up build does, and yields so the other blocks of its key
// arrive while it is still running and wait on it.
func TestForBlocksShareOnceBuilds(t *testing.T) {
	const keys, nb = 5, 60
	for _, w := range widths {
		atWidth(w, func() {
			var onces [keys]sync.Once
			var builds [keys]atomic.Int32
			var built [keys]int64
			seen := make([]int64, nb)
			done := make(chan struct{})
			go func() {
				defer close(done)
				For(nb, func(b int) {
					k := b % keys
					onces[k].Do(func() {
						builds[k].Add(1)
						parts := make([]int64, 8)
						For(len(parts), func(i int) {
							runtime.Gosched()
							parts[i] = int64(k*8 + i)
						})
						for _, p := range parts {
							built[k] += p
						}
					})
					seen[b] = built[k]
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("width %d: blocks sharing Once builds did not finish", w)
			}
			for k := range builds {
				if n := builds[k].Load(); n != 1 {
					t.Errorf("width %d: build %d ran %d times", w, k, n)
				}
			}
			for b, v := range seen {
				if k := b % keys; v != int64(64*k+28) {
					t.Errorf("width %d: block %d saw build %d as %d, want %d", w, b, k, v, 64*k+28)
				}
			}
		})
	}
}
