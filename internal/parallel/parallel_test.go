package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"
)

func TestBlocks(t *testing.T) {
	cases := []struct {
		work, grain, max, want int
	}{
		{0, 100, 8, 1},
		{-5, 100, 8, 1},
		{1, 100, 8, 1},
		{100, 100, 8, 1},
		{101, 100, 8, 2},
		{1000, 100, 8, 8},
		{1000, 100, 0, 10}, // maxBlocks < 1 means unbounded
		{50, 0, 8, 1},
	}
	for _, c := range cases {
		if got := Blocks(c.work, c.grain, c.max); got != c.want {
			t.Errorf("Blocks(%d,%d,%d) = %d, want %d", c.work, c.grain, c.max, got, c.want)
		}
	}
}

// checkCover asserts the ranges tile [0, n) exactly, in order.
func checkCover(t *testing.T, rs []Range, n int) {
	t.Helper()
	prev := 0
	for i, r := range rs {
		if r.Lo != prev {
			t.Fatalf("range %d starts at %d, want %d (ranges %v)", i, r.Lo, prev, rs)
		}
		if r.Hi < r.Lo {
			t.Fatalf("range %d is negative: %v", i, r)
		}
		prev = r.Hi
	}
	if prev != n {
		t.Fatalf("ranges end at %d, want %d (ranges %v)", prev, n, rs)
	}
}

func TestSplitN(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, nb := range []int{1, 2, 3, 7, 16, 100} {
			rs := SplitN(n, nb, nil)
			if len(rs) != nb {
				t.Fatalf("SplitN(%d,%d): %d ranges", n, nb, len(rs))
			}
			checkCover(t, rs, n)
			// Near-equal: lengths differ by at most 1.
			lo, hi := n, 0
			for _, r := range rs {
				if l := r.Hi - r.Lo; l < lo {
					lo = l
				} else if l > hi {
					hi = l
				}
			}
			_ = lo
		}
	}
}

func TestSplitNNZ(t *testing.T) {
	// A skewed row-pointer: row i has i nonzeros.
	n := 100
	rp := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rp[i+1] = rp[i] + int32(i)
	}
	for _, nb := range []int{1, 2, 4, 7, 64, 200} {
		rs := SplitNNZ(rp, nb, nil)
		if len(rs) != nb {
			t.Fatalf("SplitNNZ nb=%d: %d ranges", nb, len(rs))
		}
		checkCover(t, rs, n)
	}

	// Balance: with the skewed matrix and 4 blocks, each block's nonzero
	// count should be within one max-row of the ideal quarter.
	rs := SplitNNZ(rp, 4, nil)
	total := int(rp[n])
	for _, r := range rs {
		nnz := int(rp[r.Hi] - rp[r.Lo])
		if diff := nnz - total/4; diff > n || diff < -n {
			t.Errorf("block %v has %d nnz, ideal %d", r, nnz, total/4)
		}
	}

	// Degenerate inputs.
	checkCover(t, SplitNNZ([]int32{0}, 3, nil), 0)
	checkCover(t, SplitNNZ(nil, 3, nil), 0)
	// All nonzeros in one row.
	rp2 := []int32{0, 0, 1000, 1000}
	checkCover(t, SplitNNZ(rp2, 4, nil), 3)
}

func TestSplitNNZReuse(t *testing.T) {
	rp := []int32{0, 2, 4, 6, 8}
	buf := make([]Range, 0, 8)
	a := SplitNNZ(rp, 4, buf)
	b := SplitNNZ(rp, 4, a[:0])
	if &a[0] != &b[0] {
		t.Error("SplitNNZ did not reuse the passed storage")
	}
	checkCover(t, b, 4)
}

// runCounts runs a region on the pool and verifies every block executes
// exactly once.
func runCounts(t *testing.T, p *Pool, nblocks int) {
	t.Helper()
	counts := make([]int32, nblocks)
	var task Task
	task.F = func(b int) { atomic.AddInt32(&counts[b], 1) }
	p.Run(&task, nblocks)
	for b, c := range counts {
		if c != 1 {
			t.Fatalf("width %d, nblocks %d: block %d ran %d times", p.Workers(), nblocks, b, c)
		}
	}
}

func TestPoolRun(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7} {
		p := NewPool(w)
		for _, nb := range []int{1, 2, 3, 8, 64, 200} {
			runCounts(t, p, nb)
		}
		p.Close()
	}
}

func TestPoolRunReuseTask(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum int64
	var task Task
	task.F = func(b int) { atomic.AddInt64(&sum, int64(b)) }
	for iter := 0; iter < 100; iter++ {
		atomic.StoreInt64(&sum, 0)
		p.Run(&task, 32)
		if got := atomic.LoadInt64(&sum); got != 31*32/2 {
			t.Fatalf("iter %d: sum = %d, want %d", iter, got, 31*32/2)
		}
	}
}

// TestPoolRunReuseTaskResize reuses one Task across regions of very
// different block counts, large to small, on a wide pool. This is the
// kernel-scratch recycling pattern (e.g. multigrid fine vs coarse levels):
// a helper goroutine left over from a large region must never claim a block
// index of the old region after Run resets the Task for a smaller one —
// counts is sized to the current region, so any stale claim panics or
// double-counts.
func TestPoolRunReuseTaskResize(t *testing.T) {
	p := NewPool(7)
	defer p.Close()
	sizes := []int{257, 3, 64, 1, 200, 2, 31}
	var counts []int32
	var task Task
	task.F = func(b int) { atomic.AddInt32(&counts[b], 1) }
	for iter := 0; iter < 500; iter++ {
		nb := sizes[iter%len(sizes)]
		counts = make([]int32, nb)
		p.Run(&task, nb)
		for b, c := range counts {
			if c != 1 {
				t.Fatalf("iter %d nb=%d: block %d ran %d times", iter, nb, b, c)
			}
		}
	}
}

func TestPoolRunAfterClose(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	runCounts(t, p, 50)
}

func TestNilPool(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Errorf("nil pool Workers = %d", p.Workers())
	}
	runCounts(t, p, 10)
	p.Close()
}

func TestRunNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with nil F did not panic")
		}
	}()
	NewPool(2).Run(&Task{}, 3)
}

func TestRunZeroBlocks(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var task Task
	task.F = func(int) { t.Error("block ran for nblocks=0") }
	p.Run(&task, 0)
	p.Run(&task, -3)
}

// TestFinishedRegionKeepsNothing: at one scheduler thread a width-2 pool's
// worker does not wake before the submitter has run every block itself, so
// the region's entry is still queued when Run returns. That entry must not
// keep the closure, or the buffer it captures, reachable once the caller
// drops its Task.
func TestFinishedRegionKeepsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool(2)
	defer p.Close()
	buf := weak.Make(func() *[1 << 16]byte {
		buf := new([1 << 16]byte)
		var task Task
		task.F = func(b int) { buf[b]++ }
		p.Run(&task, 4)
		return buf
	}())
	runtime.GC()
	if buf.Value() != nil {
		t.Error("a finished region's closure keeps its captured buffer reachable through the pool")
	}
}

// TestConcurrentRun drives many regions from competing goroutines through
// one pool; with the race detector this exercises the saturated-pool path
// where submitters finish their own blocks.
func TestConcurrentRun(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, 40)
			var task Task
			task.F = func(b int) { atomic.AddInt32(&counts[b], 1) }
			for iter := 0; iter < 50; iter++ {
				for i := range counts {
					counts[i] = 0
				}
				p.Run(&task, len(counts))
				for b := range counts {
					if counts[b] != 1 {
						t.Errorf("block %d ran %d times", b, counts[b])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSetDefaultWorkers(t *testing.T) {
	orig := Default().Workers()
	defer SetDefaultWorkers(orig)

	SetDefaultWorkers(3)
	if got := Default().Workers(); got != 3 {
		t.Fatalf("Workers = %d after SetDefaultWorkers(3)", got)
	}
	p := Default()
	SetDefaultWorkers(3) // same width: keep the pool
	if Default() != p {
		t.Error("SetDefaultWorkers with unchanged width replaced the pool")
	}
	SetDefaultWorkers(1)
	if got := Default().Workers(); got != 1 {
		t.Fatalf("Workers = %d after SetDefaultWorkers(1)", got)
	}
	runCounts(t, Default(), 10)
}

// TestDeterministicReduction is the contract in miniature: a blocked
// partial-sum reduction combined in block order gives the same bits for
// every pool width.
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
	nb := Blocks(n, 1024, 64)
	ranges := SplitN(n, nb, nil)

	reduce := func(p *Pool) float64 {
		partial := make([]float64, nb)
		var task Task
		task.F = func(b int) {
			s := 0.0
			for _, x := range xs[ranges[b].Lo:ranges[b].Hi] {
				s += x * x
			}
			partial[b] = s
		}
		p.Run(&task, nb)
		sum := 0.0
		for _, s := range partial {
			sum += s
		}
		return sum
	}

	var ref float64
	for i, w := range []int{1, 2, 4, 7} {
		p := NewPool(w)
		got := reduce(p)
		p.Close()
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("width %d: sum %x differs from width-1 sum %x", w, got, ref)
		}
	}
}
