package dmem

// Reusable run setup: the (matrix, partition, local-solver) preprocessing
// — layout construction and per-rank local factorizations — hoisted out of
// the individual runs so that table drivers (internal/bench) can pay for
// it once per (matrix, P) and share it across every method, engine, and
// fault-plan cell, and so that a smoother or preconditioner can solve the
// same matrix again and again. At paper scale (P = 4096/8192) the setup
// dominates host wall-clock when repeated per cell; shared, it is paid
// once.
//
// Sharing is safe by construction. The layout and the factorizations are
// read-only: the Layout is immutable after NewLayout, and the factors are
// exposed through SharedFactor, whose SolveInto takes caller-owned scratch
// — each run state pairs the shared factor with private buffers
// (rankState.direct). Every method takes the Setup as its first argument, so
// the layout and the local solver a run uses are the ones it was built for.
// The one mutable field is the parked run state (runstate.go,
// DESIGN.md §16): a solve takes it from behind the mutex or builds its own,
// and parks it again when it returns, so repeated solves reuse one world and
// one set of rank states while concurrent runs never share any. The
// setup-cache and reuse tests pin this under -race.

import (
	"fmt"
	"sync"

	"southwell/internal/dense"
	"southwell/internal/parallel"
	"southwell/internal/spdirect"
)

// SharedFactor is an immutable factored local diagonal block, safe for
// concurrent solves: SolveInto writes x = A_pp⁻¹ b using caller-owned
// scratch of length ScratchLen, reading — never writing — the
// factorization itself. SolveFlops is the per-solve flop count charged to
// the α-β-γ cost model.
type SharedFactor interface {
	SolveInto(b, x, scratch []float64)
	SolveFlops() float64
	ScratchLen() int
}

// ldlShared adapts the sparse LDLᵀ backend: spdirect.Factor.SolveWith
// reads only the factor arrays, so one Factor serves any number of
// concurrent callers with private scratch.
type ldlShared struct {
	f *spdirect.Factor
	n int
}

func (s *ldlShared) SolveInto(b, x, scratch []float64) { s.f.SolveWith(b, x, scratch) }
func (s *ldlShared) SolveFlops() float64               { return s.f.SolveFlops() }
func (s *ldlShared) ScratchLen() int                   { return s.n }

// denseShared adapts the dense LU backend the same way.
type denseShared struct {
	lu *dense.LU
	m  int
}

func (s *denseShared) SolveInto(b, x, scratch []float64) { s.lu.SolveWith(b, x, scratch) }

// SolveFlops: two triangular sweeps of an m×m factor.
func (s *denseShared) SolveFlops() float64 { m := float64(s.m); return 2 * m * m }
func (s *denseShared) ScratchLen() int     { return s.m }

// localBlockCSR assembles rank p's diagonal block A_pp as a standalone CSR
// (local row/column indices, diagonal included) for the sparse
// factorization. The block of a structurally symmetric matrix restricted to
// one rank's rows is itself structurally symmetric, which is exactly what
// spdirect.Analyze requires.
func localBlockCSR(l *Layout, p int) (rowPtr, col []int, val []float64) {
	diag, locPtr := l.localBlock(p)
	m := len(diag)
	rowPtr = make([]int, m+1)
	for li := 0; li < m; li++ {
		rowPtr[li+1] = rowPtr[li] + 1 + int(locPtr[li+1]-locPtr[li])
	}
	col = make([]int, rowPtr[m])
	val = make([]float64, rowPtr[m])
	w := 0
	for li, d := range diag {
		col[w], val[w] = li, d
		w++
		lo, hi := locPtr[li], locPtr[li+1]
		cols := l.locCol[lo:hi]
		vals := l.locVal[lo:hi][:len(cols)]
		for k, c := range cols {
			col[w], val[w] = int(c), vals[k]
			w++
		}
	}
	return rowPtr, col, val
}

// factorShared factors rank p's diagonal block under the configured policy,
// returning the shareable form: LocalDirect takes the sparse LDLᵀ path;
// LocalAuto goes dense for tiny blocks, then consults the symbolic fill
// estimate. The choice is a pure function of the block, never of
// scheduling.
func factorShared(l *Layout, p int, mode LocalSolver) (SharedFactor, error) {
	m := int(l.rowOff[p+1] - l.rowOff[p])
	if mode == LocalAuto && m <= autoDenseMax {
		return factorSharedDense(l, p)
	}
	rowPtr, col, val := localBlockCSR(l, p)
	sym, err := spdirect.Analyze(m, rowPtr, col, spdirect.Options{})
	if err != nil {
		return nil, err
	}
	if mode == LocalAuto && sym.SolveFlops() >= 2*float64(m)*float64(m) {
		return factorSharedDense(l, p)
	}
	f, err := sym.Factorize(val)
	if err != nil {
		return nil, err
	}
	return &ldlShared{f: f, n: m}, nil
}

// factorSharedDense builds the dense LU of rank p's diagonal block —
// LocalAuto's small-block path.
func factorSharedDense(l *Layout, p int) (SharedFactor, error) {
	diag, locPtr := l.localBlock(p)
	m := len(diag)
	dm := dense.NewMatrix(m)
	for li, d := range diag {
		dm.Set(li, li, d)
		for k := locPtr[li]; k < locPtr[li+1]; k++ {
			dm.Set(li, int(l.locCol[k]), l.locVal[k])
		}
	}
	lu, err := dense.FactorLU(dm)
	if err != nil {
		return nil, err
	}
	return &denseShared{lu: lu, m: m}, nil
}

// factorAll factors every rank's diagonal block concurrently on the shared
// kernel pool. Each rank's factor is a pure sequential function of its own
// block written to its own slot, so worker count never influences a bit of
// the result; the lowest failing rank wins error reporting for
// determinism.
func factorAll(l *Layout, mode LocalSolver) ([]SharedFactor, error) {
	p := l.P
	factors := make([]SharedFactor, p)
	errs := make([]error, p)
	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	var task parallel.Task
	task.F = func(b int) {
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			factors[pr], errs[pr] = factorShared(l, pr, mode)
		}
	}
	parallel.Default().Run(&task, nb)
	for pr, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dmem: local block of rank %d not factorizable: %w", pr, err)
		}
	}
	return factors, nil
}

// Setup is the preprocessing of (layout, local-solver mode): the layout
// plus, for the exact local solvers, every rank's shared factorization —
// both read-only — and at most one parked run state. Build once with
// NewSetup, then hand the same *Setup to any number of runs: repeated runs
// reuse the parked state, concurrent ones stay safe (a run that finds the
// slot empty builds its own state and drops it).
type Setup struct {
	Layout *Layout
	Local  LocalSolver

	factors []SharedFactor // nil for LocalGS

	mu     sync.Mutex
	parked *runState // built by the first solve, never by NewSetup
}

// NewSetup builds the reusable setup for the given layout and local-solver
// mode, factoring all ranks in parallel for LocalDirect/LocalAuto.
func NewSetup(l *Layout, mode LocalSolver) (*Setup, error) {
	s := &Setup{Layout: l, Local: mode}
	if mode == LocalDirect || mode == LocalAuto {
		factors, err := factorAll(l, mode)
		if err != nil {
			return nil, err
		}
		s.factors = factors
	}
	return s, nil
}

// Factor returns rank p's shared factorization (nil for LocalGS), mainly
// for the setup-cache tests.
func (s *Setup) Factor(p int) SharedFactor {
	if s.factors == nil {
		return nil
	}
	return s.factors[p]
}
