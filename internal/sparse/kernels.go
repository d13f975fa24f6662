package sparse

import (
	"fmt"
	"math"
	"sync"

	"southwell/internal/parallel"
)

// Block-decomposition policy for the parallel kernels. All three constants
// are pure functions of the workload, never of the worker count — see the
// determinism contract in package parallel. mulGrainNNZ sizes SpMV/residual
// blocks by nonzeros (outputs are elementwise, so any split is bit-exact);
// normGrainLen sizes reduction blocks by vector length, and is shared by
// SumSquares and ResidualNorm2 so the fused kernel's partial-sum grouping
// matches SumSquares' exactly.
const (
	mulGrainNNZ   = 32768
	normGrainLen  = 16384
	maxKernBlocks = 64

	// The format conversion (COO.ToCSR) shards by entry count. Each shard
	// carries an n-sized counter array, so the shard cap is much lower than
	// the kernel block cap.
	convShardGrain = 65536
	maxConvShards  = 8

	// Per-row cleanup passes in ToCSR block by row count.
	rowBlockGrain = 8192
)

// kernScratch owns the reusable state of one in-flight kernel invocation:
// the block ranges, the per-block partial sums, and parallel.Tasks whose
// closures are bound once at construction. Scratches are recycled through a
// free list, so steady-state kernel calls allocate nothing.
type kernScratch struct {
	a          *CSR
	x, y, b, r []float64 // MulVec / Residual / ResidualNorm2 operands
	v          []float64 // SumSquares operand

	ranges  []parallel.Range
	partial []float64

	mulTask   parallel.Task
	residTask parallel.Task
	rnormTask parallel.Task
	sumsqTask parallel.Task
}

// newKernScratch allocates a scratch and binds its task closures once.
func newKernScratch() *kernScratch {
	s := &kernScratch{}
	s.mulTask.F = func(b int) {
		rg := s.ranges[b]
		mulRange(s.a, s.x, s.y, rg.Lo, rg.Hi)
	}
	s.residTask.F = func(b int) {
		rg := s.ranges[b]
		residRange(s.a, s.b, s.x, s.r, rg.Lo, rg.Hi)
	}
	s.rnormTask.F = func(b int) {
		rg := s.ranges[b]
		s.partial[b] = residSumSqRange(s.a, s.b, s.x, s.r, rg.Lo, rg.Hi)
	}
	s.sumsqTask.F = func(b int) {
		rg := s.ranges[b]
		s.partial[b] = sumSqRange(s.v, rg.Lo, rg.Hi)
	}
	return s
}

// kernFree recycles scratches. A plain mutex-guarded free list rather than
// sync.Pool: the GC may empty a sync.Pool at any time, which would make the
// allocs/op regression gate (TestKernelAllocGate) flaky instead of exact.
// The list's length is bounded by the peak number of concurrent kernel
// calls, which is small.
var kernFree struct {
	mu   sync.Mutex
	list []*kernScratch
}

func getKern() *kernScratch {
	kernFree.mu.Lock()
	var s *kernScratch
	if n := len(kernFree.list); n > 0 {
		s = kernFree.list[n-1]
		kernFree.list[n-1] = nil
		kernFree.list = kernFree.list[:n-1]
	}
	kernFree.mu.Unlock()
	if s == nil {
		s = newKernScratch()
	}
	return s
}

func putKern(s *kernScratch) {
	s.a, s.x, s.y, s.b, s.r, s.v = nil, nil, nil, nil, nil, nil
	kernFree.mu.Lock()
	kernFree.list = append(kernFree.list, s)
	kernFree.mu.Unlock()
}

// growPartial returns p with length nb, reusing its storage when possible.
func growPartial(p []float64, nb int) []float64 {
	if cap(p) < nb {
		return make([]float64, nb)
	}
	return p[:nb]
}

// runBlocks executes f over nb blocks on the shared pool with a throwaway
// task. For setup-path parallelism (format conversion, assembly) where a
// per-call closure allocation is irrelevant; steady-state kernels use the
// pre-bound tasks in kernScratch instead.
func runBlocks(nb int, f func(b int)) {
	var t parallel.Task
	t.F = f
	parallel.Default().Run(&t, nb)
}

// rowDot returns (A x)_i, accumulated in ascending column order. The row is
// two local slices cut once, so the loop carries one data-dependent bounds
// check (x[c]) and reloads no slice header through a.
func rowDot(a *CSR, x []float64, i int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	cols := a.Col[lo:hi]
	vals := a.Val[lo:hi][:len(cols)]
	sum := 0.0
	for k, c := range cols {
		sum += vals[k] * x[c]
	}
	return sum
}

// mulRange computes y[i] = (A x)_i for i in [lo, hi).
func mulRange(a *CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] = rowDot(a, x, i)
	}
}

// residRange computes r[i] = b[i] - (A x)_i for i in [lo, hi) in one pass.
// The row product accumulates first and is subtracted once, so the result
// is bit-identical to MulVec followed by an elementwise subtraction (e.g.
// a consistent system built via MulVec yields an exactly-zero residual).
func residRange(a *CSR, b, x, r []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = b[i] - rowDot(a, x, i)
	}
}

// residSumSqRange is residRange fused with the block's partial Σ r_i²,
// accumulated in ascending i — the same order sumSqRange uses, so the fused
// kernel's partials equal SumSquares' partials bit for bit.
func residSumSqRange(a *CSR, b, x, r []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		ri := b[i] - rowDot(a, x, i)
		r[i] = ri
		s += ri * ri
	}
	return s
}

// sumSqRange returns Σ x_i² over [lo, hi) in ascending order.
func sumSqRange(x []float64, lo, hi int) float64 {
	s := 0.0
	for _, v := range x[lo:hi] {
		s += v * v
	}
	return s
}

// MulVec computes y = A*x. y must have length N and may not alias x.
// Rows are processed in NNZ-balanced blocks on the shared kernel pool; the
// output is elementwise, so the result is bit-identical for any worker
// count. Steady-state calls allocate nothing.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: n=%d len(x)=%d len(y)=%d", a.N, len(x), len(y)))
	}
	p := parallel.Default()
	nb := parallel.Blocks(a.NNZ(), mulGrainNNZ, maxKernBlocks)
	if p.Workers() <= 1 || nb <= 1 {
		mulRange(a, x, y, 0, a.N)
		return
	}
	s := getKern()
	s.a, s.x, s.y = a, x, y
	s.ranges = parallel.SplitNNZ(a.RowPtr, nb, s.ranges[:0])
	p.Run(&s.mulTask, nb)
	putKern(s)
}

// Residual computes r = b - A*x into r (length N) in a single fused pass
// over the matrix. Like MulVec, the result is elementwise and bit-identical
// for any worker count, with zero steady-state allocations.
func (a *CSR) Residual(b, x, r []float64) {
	if len(b) != a.N || len(x) != a.N || len(r) != a.N {
		panic(fmt.Sprintf("sparse: Residual dimension mismatch: n=%d len(b)=%d len(x)=%d len(r)=%d", a.N, len(b), len(x), len(r)))
	}
	p := parallel.Default()
	nb := parallel.Blocks(a.NNZ(), mulGrainNNZ, maxKernBlocks)
	if p.Workers() <= 1 || nb <= 1 {
		residRange(a, b, x, r, 0, a.N)
		return
	}
	s := getKern()
	s.a, s.b, s.x, s.r = a, b, x, r
	s.ranges = parallel.SplitNNZ(a.RowPtr, nb, s.ranges[:0])
	p.Run(&s.residTask, nb)
	putKern(s)
}

// ResidualNorm2 computes r = b - A*x and returns ‖r‖₂ in one pass over the
// matrix — the fused kernel every solver's convergence check wants, saving
// a second sweep of r. The norm is reduced over length-balanced blocks
// (fixed count, a function of N only) with per-block partials combined in
// ascending block order, so the result equals √SumSquares(r) after Residual
// exactly, and is bit-identical for any worker count including 1.
// Steady-state calls allocate nothing.
func (a *CSR) ResidualNorm2(b, x, r []float64) float64 {
	if len(b) != a.N || len(x) != a.N || len(r) != a.N {
		panic(fmt.Sprintf("sparse: ResidualNorm2 dimension mismatch: n=%d len(b)=%d len(x)=%d len(r)=%d", a.N, len(b), len(x), len(r)))
	}
	nb := parallel.Blocks(a.N, normGrainLen, maxKernBlocks)
	if nb <= 1 {
		return math.Sqrt(residSumSqRange(a, b, x, r, 0, a.N))
	}
	// The blocked path runs whenever nb > 1 — even on a width-1 pool, where
	// Run executes the blocks inline — so the partial-sum grouping depends
	// only on N, never on the worker count.
	s := getKern()
	s.a, s.b, s.x, s.r = a, b, x, r
	s.ranges = parallel.SplitN(a.N, nb, s.ranges[:0])
	s.partial = growPartial(s.partial, nb)
	parallel.Default().Run(&s.rnormTask, nb)
	sum := 0.0
	for _, v := range s.partial[:nb] {
		sum += v
	}
	putKern(s)
	return math.Sqrt(sum)
}

// SumSquares returns Σ x_i², reduced over the same fixed, length-keyed
// block decomposition as ResidualNorm2 with partials combined in block
// order: bit-identical for any worker count, and exactly the value
// ResidualNorm2 squares. Steady-state calls allocate nothing.
func SumSquares(x []float64) float64 {
	nb := parallel.Blocks(len(x), normGrainLen, maxKernBlocks)
	if nb <= 1 {
		return sumSqRange(x, 0, len(x))
	}
	s := getKern()
	s.v = x
	s.ranges = parallel.SplitN(len(x), nb, s.ranges[:0])
	s.partial = growPartial(s.partial, nb)
	parallel.Default().Run(&s.sumsqTask, nb)
	sum := 0.0
	for _, v := range s.partial[:nb] {
		sum += v
	}
	putKern(s)
	return sum
}
