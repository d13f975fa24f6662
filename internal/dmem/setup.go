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
// read-only: the Layout is immutable after NewLayout, and a factor's one
// solve, spdirect.Factor.SolveWith, takes caller-owned scratch — each run
// state pairs the shared factor with private buffers (rankState.direct).
// Every method takes the Setup as its first argument, so the layout and the
// local solver a run uses are the ones it was built for.
// The one mutable field is the parked run state (runstate.go,
// DESIGN.md §16): a solve takes it from behind the mutex or builds its own,
// and parks it again when it returns, so repeated solves reuse one world and
// one set of rank states while concurrent runs never share any. The
// setup-cache and reuse tests pin this under -race.

import (
	"fmt"
	"sync"

	"southwell/internal/parallel"
	"southwell/internal/spdirect"
)

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

// factorShared factors rank p's diagonal block by sparse LDLᵀ, a pure
// function of the block, never of scheduling.
func factorShared(l *Layout, p int) (*spdirect.Factor, error) {
	rowPtr, col, val := localBlockCSR(l, p)
	return spdirect.Factorize(len(rowPtr)-1, rowPtr, col, val)
}

// factorAll factors every rank's diagonal block concurrently on the shared
// kernel pool. Each rank's factor is a pure sequential function of its own
// block written to its own slot, so worker count never influences a bit of
// the result; the lowest failing rank wins error reporting for
// determinism.
func factorAll(l *Layout) ([]*spdirect.Factor, error) {
	p := l.P
	factors := make([]*spdirect.Factor, p)
	errs := make([]error, p)
	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	var task parallel.Task
	task.F = func(b int) {
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			factors[pr], errs[pr] = factorShared(l, pr)
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
// plus, for LocalDirect, every rank's shared factorization —
// both read-only — and at most one parked run state. Build once with
// NewSetup, then hand the same *Setup to any number of runs: repeated runs
// reuse the parked state, concurrent ones stay safe (a run that finds the
// slot empty builds its own state and drops it).
type Setup struct {
	Layout *Layout
	Local  LocalSolver

	factors []*spdirect.Factor // nil for LocalGS

	mu     sync.Mutex
	parked *runState // built by the first solve, never by NewSetup
}

// NewSetup builds the reusable setup for the given layout and local-solver
// mode, factoring all ranks in parallel for LocalDirect. Any mode but
// LocalGS and LocalDirect is an error.
func NewSetup(l *Layout, mode LocalSolver) (*Setup, error) {
	s := &Setup{Layout: l, Local: mode}
	switch mode {
	case LocalGS:
	case LocalDirect:
		factors, err := factorAll(l)
		if err != nil {
			return nil, err
		}
		s.factors = factors
	default:
		return nil, fmt.Errorf("dmem: unknown local solver %v (want LocalGS or LocalDirect)", mode)
	}
	return s, nil
}

// Factor returns rank p's shared factorization (nil for LocalGS), mainly
// for the setup-cache tests.
func (s *Setup) Factor(p int) *spdirect.Factor {
	if s.factors == nil {
		return nil
	}
	return s.factors[p]
}
