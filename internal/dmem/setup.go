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
// read-only: the Layout is immutable after NewLayout, and a factor is
// read-only once spdirect.Factorize returns; its one solve,
// Factor.SolveWith, takes caller-owned scratch — each run state pairs the
// shared factor with private scratch (rankState.direct).
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
// (local row/column indices, each row's diagonal first, then its local
// couplings in source column order) for the sparse factorization: the
// entries of the rank's rows of A whose targets are local rows. The block
// of a structurally symmetric matrix restricted to one rank's rows is
// itself structurally symmetric, which is exactly what spdirect.Factorize
// requires.
func localBlockCSR(l *Layout, p int) (rowPtr, col []int32, val []float64) {
	glob := l.rows(p)
	diag := l.diag[l.rowOff[p]:l.rowOff[p+1]]
	m := int32(len(glob))
	rowPtr = make([]int32, m+1)
	for li, g := range glob {
		n := int32(1)
		for _, t := range l.tgt[l.A.RowPtr[g]:l.A.RowPtr[g+1]] {
			if t < m && t != int32(li) {
				n++
			}
		}
		rowPtr[li+1] = rowPtr[li] + n
	}
	col = make([]int32, rowPtr[m])
	val = make([]float64, rowPtr[m])
	w := 0
	for li, g := range glob {
		col[w], val[w] = int32(li), diag[li]
		w++
		lo, hi := l.A.RowPtr[g], l.A.RowPtr[g+1]
		vals := l.A.Val[lo:hi]
		for k, t := range l.tgt[lo:hi] {
			if t < m && t != int32(li) {
				col[w], val[w] = t, vals[k]
				w++
			}
		}
	}
	return rowPtr, col, val
}

// factorShared factors rank p's diagonal block by sparse LDLᵀ, a pure
// function of the block, never of scheduling.
func factorShared(l *Layout, p int) (*spdirect.Factor, error) {
	return spdirect.Factorize(localBlockCSR(l, p))
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
//
// Every Setup counts each rank's off-diagonal entries once (nnz), so a
// relaxation's flop charge is O(1). A LocalDirect Setup keeps, beside its
// factors, only the external couplings its scatter reads (ext, an ext-only
// CSR), and its Layout keeps no targets and no diagonal (tgt, diag): its
// factors are the local blocks, and nothing after the factorization reads
// them. Build any other Setup from the Layout NewLayout returned, never
// from a direct Setup's.
type Setup struct {
	Layout *Layout
	Local  LocalSolver

	nnz     []int32            // per rank, its off-diagonal count (rankState.nnz)
	factors []*spdirect.Factor // nil for LocalGS
	ext     *extCouplings      // nil for LocalGS

	mu     sync.Mutex
	parked *runState // built by the first solve, never by NewSetup
}

// NewSetup builds the reusable setup for the given layout and local-solver
// mode, factoring all ranks in parallel for LocalDirect. Any mode but
// LocalGS and LocalDirect is an error, and so is a layout whose targets a
// direct Setup dropped. l itself is never modified.
func NewSetup(l *Layout, mode LocalSolver) (*Setup, error) {
	if l.tgt == nil {
		return nil, fmt.Errorf("dmem: layout has no targets (a LocalDirect Setup's): build the Setup from the Layout NewLayout returned")
	}
	s := &Setup{Layout: l, Local: mode, nnz: offDiagonalCounts(l)}
	switch mode {
	case LocalGS:
	case LocalDirect:
		factors, err := factorAll(l)
		if err != nil {
			return nil, err
		}
		s.factors, s.ext = factors, newExtCouplings(l)
		// The factors are the local blocks and ext the rest: keep everything
		// else of the layout, shallowly, and leave the caller's untouched.
		direct := *l
		direct.tgt, direct.diag = nil, nil
		s.Layout = &direct
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

// offDiagonalCounts returns each rank's off-diagonal entry count: the
// entries of its rows of A whose target is not the row's own.
func offDiagonalCounts(l *Layout) []int32 {
	nnz := make([]int32, l.P)
	for p := range l.P {
		n := int32(0)
		for li, g := range l.rows(p) {
			for _, t := range l.tgt[l.A.RowPtr[g]:l.A.RowPtr[g+1]] {
				if t != int32(li) {
					n++
				}
			}
		}
		nnz[p] = n
	}
	return nnz
}

// extCouplings is the ext-only CSR a LocalDirect relaxation scatters
// through, rows in rank order as in the layout: row i's external couplings
// are col/val[ptr[i]:ptr[i+1]] in source column order, col the owner's ext
// slot (counted from its Layout.extOff). uint32 columns halve the scatter's
// index bandwidth.
type extCouplings struct {
	ptr []int32
	col []uint32
	val []float64
}

// newExtCouplings builds the ext-only CSR from A and the layout's targets:
// the entries of each row whose target lies past its rank's rows.
func newExtCouplings(l *Layout) *extCouplings {
	a := l.A
	e := &extCouplings{ptr: make([]int32, a.N+1)}
	for p := range l.P {
		m := l.rowOff[p+1] - l.rowOff[p]
		for li, g := range l.rows(p) {
			n := int32(0)
			for _, t := range l.tgt[a.RowPtr[g]:a.RowPtr[g+1]] {
				if t >= m {
					n++
				}
			}
			i := l.rowOff[p] + int32(li)
			e.ptr[i+1] = e.ptr[i] + n
		}
	}
	e.col, e.val = make([]uint32, e.ptr[a.N]), make([]float64, e.ptr[a.N])
	w := 0
	for p := range l.P {
		m := l.rowOff[p+1] - l.rowOff[p]
		for _, g := range l.rows(p) {
			lo, hi := a.RowPtr[g], a.RowPtr[g+1]
			vals := a.Val[lo:hi]
			for k, t := range l.tgt[lo:hi] {
				if t >= m {
					e.col[w], e.val[w] = uint32(t-m), vals[k]
					w++
				}
			}
		}
	}
	return e
}
