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

// targets writes into at, an n-long scratch, rank p's numbering of the rows
// its rows couple to — the local index of each of its rows, m + s for the
// row behind its ext slot s (ext: Layout.extRows) — and returns m. It is the
// [r | extDelta] numbering of the rank's vectors, rebuilt for one rank at a
// time: no row of p couples to any other row, so what at holds there is
// never read and one scratch serves every rank in turn.
func (l *Layout) targets(at, ext []int32, p int) (m int32) {
	m = l.rowOff[p+1] - l.rowOff[p]
	for li, g := range l.rows(p) {
		at[g] = int32(li)
	}
	for s, c := range ext[l.extOff[p]:l.extOff[p+1]] {
		at[c] = m + int32(s)
	}
	return m
}

// localBlockCSR assembles rank p's diagonal block A_pp as a standalone CSR
// (local row/column indices, each row's diagonal first, then its local
// couplings in source column order) for the sparse factorization: the
// entries of the rank's rows of A whose columns are rows of p, numbered by
// at (targets). The diagonal is the row's one entry whose target is li
// (NewLayout refuses a row with two), so each row has a slot reserved for
// it in front that the walk fills when it meets that entry. The block of a
// structurally symmetric matrix restricted to one rank's rows is itself
// structurally symmetric, which is exactly what spdirect.Factorize
// requires.
func localBlockCSR(l *Layout, at, ext []int32, p int) (rowPtr, col []int32, val []float64) {
	m := l.targets(at, ext, p)
	glob := l.rows(p)
	rowPtr = make([]int32, m+1)
	for li, g := range glob {
		n := int32(0)
		cols, _ := l.A.Row(int(g))
		for _, c := range cols {
			if at[c] < m {
				n++
			}
		}
		rowPtr[li+1] = rowPtr[li] + n
	}
	col = make([]int32, rowPtr[m])
	val = make([]float64, rowPtr[m])
	for li, g := range glob {
		w := rowPtr[li] + 1 // rowPtr[li] is the diagonal's
		cols, vals := l.A.Row(int(g))
		for k, c := range cols {
			if t := at[c]; t == int32(li) {
				col[rowPtr[li]], val[rowPtr[li]] = t, vals[k]
			} else if t < m {
				col[w], val[w] = t, vals[k]
				w++
			}
		}
	}
	return rowPtr, col, val
}

// factorAll factors every rank's diagonal block concurrently over
// parallel.For. Each rank's factor is a pure sequential function of its own
// block written to its own slot, so worker count never influences a bit of
// the result; the lowest failing rank wins error reporting for
// determinism. Each rank block numbers its ranks' rows in a scratch of its
// own.
func factorAll(l *Layout, ext []int32) ([]*spdirect.Factor, error) {
	p := l.P
	factors := make([]*spdirect.Factor, p)
	errs := make([]error, p)
	nb := rankBlockCount(p)
	parallel.For(nb, func(b int) {
		at := make([]int32, l.A.N)
		for pr := b * p / nb; pr < (b+1)*p/nb; pr++ {
			factors[pr], errs[pr] = spdirect.Factorize(localBlockCSR(l, at, ext, pr))
		}
	})
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
// CSR). Layout is the caller's own, shared, never a copy.
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
// mode, factoring all ranks in parallel for LocalDirect, whose factors take
// each row's a_ii from A (localBlockCSR). Any mode but LocalGS and
// LocalDirect is an error. The Setup keeps l itself, which it never
// modifies, so any number of Setups can share one layout.
func NewSetup(l *Layout, mode LocalSolver) (*Setup, error) {
	s := &Setup{Layout: l, Local: mode, nnz: offDiagonalCounts(l)}
	switch mode {
	case LocalGS:
	case LocalDirect:
		ext := l.extRows() // dies with this call: a run state derives its own
		factors, err := factorAll(l, ext)
		if err != nil {
			return nil, err
		}
		s.factors, s.ext = factors, newExtCouplings(l, ext)
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

// offDiagonalCounts returns each rank's off-diagonal entry count: its rows'
// lengths in A less one diagonal entry each, which NewLayout's gate
// guarantees every row holds exactly once.
func offDiagonalCounts(l *Layout) []int32 {
	nnz := make([]int32, l.P)
	for p := range l.P {
		rows := l.rows(p)
		n := -int32(len(rows))
		for _, g := range rows {
			n += l.A.RowPtr[g+1] - l.A.RowPtr[g]
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

// newExtCouplings builds the ext-only CSR from A, numbering each rank's
// rows by targets (ext: Layout.extRows): the entries of each row whose
// column lies past its rank's rows.
func newExtCouplings(l *Layout, ext []int32) *extCouplings {
	a := l.A
	at := make([]int32, a.N)
	e := &extCouplings{ptr: make([]int32, a.N+1)}
	for p := range l.P {
		m := l.targets(at, ext, p)
		for li, g := range l.rows(p) {
			n := int32(0)
			cols, _ := a.Row(int(g))
			for _, c := range cols {
				if at[c] >= m {
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
		m := l.targets(at, ext, p)
		for _, g := range l.rows(p) {
			cols, vals := a.Row(int(g))
			for k, c := range cols {
				if t := at[c]; t >= m {
					e.col[w], e.val[w] = uint32(t-m), vals[k]
					w++
				}
			}
		}
	}
	return e
}
