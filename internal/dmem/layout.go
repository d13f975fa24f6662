// Package dmem implements the paper's distributed-memory block methods over
// the simulated one-sided runtime of internal/rma:
//
//   - Block Jacobi (Algorithm 1),
//   - Parallel Southwell, block form (Algorithm 2),
//   - Distributed Southwell, block form (Algorithm 3) — the contribution,
//   - the 2016 piggyback-only variant of Parallel Southwell (ref [18]),
//     which can deadlock and is included for the paper's deadlock claim.
//
// Each simulated rank owns a contiguous set of matrix rows under a given
// partition, performs one local Gauss-Seidel sweep per relaxation (the
// -loc_solver gs default of the artifact), and exchanges boundary residual
// deltas, ghost residual values, and residual norms exactly as the paper's
// algorithms prescribe.
package dmem

import (
	"fmt"
	"sort"
	"sync"

	"southwell/internal/parallel"
	"southwell/internal/sparse"
)

// Layout is the static distribution of a matrix over P ranks: who owns
// which rows, and for every rank the local sparse structure plus the
// boundary/ghost indexing used for neighbor exchange. Building it
// corresponds to the paper's setup phase (METIS partition + neighbor
// discovery), which is not part of the measured solve.
type Layout struct {
	A     *sparse.CSR
	P     int
	Part  []int   // owner rank of each global row
	Rows  [][]int // Rows[p]: global rows owned by p, ascending
	Local []int   // Local[g]: local index of global row g within its owner

	Ranks []*RankData
}

// RankData is one rank's static view: a local matrix in split-CSR form
// where each row's entries are partitioned into local couplings (column
// owned by this rank) and external couplings (column owned by a neighbor),
// plus boundary exchange plans.
type RankData struct {
	P    int   // this rank
	Glob []int // global row ids, ascending; local index = position

	// Local matrix, split CSR: row li's local couplings are
	// LocCol/LocVal[LocPtr[li]:LocPtr[li+1]] (local column index), its
	// external couplings ExtCol/ExtVal[ExtPtr[li]:ExtPtr[li+1]] (ext-row
	// slot). Within a row the source column order is preserved inside each
	// class; local entries target r[] and ext entries target extDelta[]
	// (disjoint arrays), so the split sweep applies the identical update
	// sequence per memory location as an interleaved walk would — the
	// Gauss–Seidel bits are unchanged. uint32 columns halve the index
	// bandwidth of the hot sweep.
	LocPtr []int
	LocCol []uint32
	LocVal []float64
	ExtPtr []int
	ExtCol []uint32
	ExtVal []float64
	Diag   []float64
	NNZ    int // total off-diagonal entries, local + external

	// External rows: remote rows coupled to this rank's rows.
	ExtGlob []int // global ids, ascending

	// Neighbors, ascending rank order. SlotInNbr[j] is this rank's own
	// position in neighbor j's Nbrs: the index under which neighbor j files
	// what this rank sends it.
	Nbrs      []int
	SlotInNbr []int32

	// Exchange plans, both indexed by neighbor position in Nbrs and both in
	// ascending global row order, so BndExt[j] here and MyBnd on neighbor j
	// list the same rows in the same order (a message body needs no index).
	// BndExt[j]: ext-row indices owned by neighbor j (the ghost layer z
	// covers exactly these). MyBnd[j]: local rows of this rank that couple
	// into neighbor j (the boundary points β whose residuals neighbor j
	// ghosts).
	BndExt [][]int
	MyBnd  [][]int
}

// NewLayout distributes a (structurally symmetric) matrix over P ranks
// according to part. It validates the partition and the symmetry
// assumption the relaxation kernels rely on.
func NewLayout(a *sparse.CSR, part []int, p int) (*Layout, error) {
	if len(part) != a.N {
		return nil, fmt.Errorf("dmem: partition length %d != n %d", len(part), a.N)
	}
	l := &Layout{A: a, P: p, Part: part, Rows: make([][]int, p), Local: make([]int, a.N)}
	for g := 0; g < a.N; g++ {
		pr := part[g]
		if pr < 0 || pr >= p {
			return nil, fmt.Errorf("dmem: row %d has invalid rank %d", g, pr)
		}
		l.Local[g] = len(l.Rows[pr])
		l.Rows[pr] = append(l.Rows[pr], g)
	}
	for pr := 0; pr < p; pr++ {
		if len(l.Rows[pr]) == 0 {
			return nil, fmt.Errorf("dmem: rank %d owns no rows", pr)
		}
	}

	// Per-rank extraction: ranks are independent (each writes only its own
	// RankData from the read-only matrix and partition), so rank blocks fan
	// out over the shared pool. Each block reuses one pooled position
	// scratch across its ranks. Block boundaries never influence the
	// per-rank output, so the layout is identical for any worker count.
	l.Ranks = make([]*RankData, p)
	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	var build parallel.Task
	build.F = func(b int) {
		sc := getLayoutScratch(a.N)
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			l.Ranks[pr] = buildRank(a, l, pr, sc)
		}
		putLayoutScratch(sc)
	}
	parallel.Default().Run(&build, nb)

	// Second pass: cross-rank slot addressing (needs every rank's Nbrs and
	// ExtGlob built). Also per-rank independent; a rank records its first
	// error and the lowest-rank error wins, keeping failures deterministic.
	errs := make([]error, p)
	var address parallel.Task
	address.F = func(b int) {
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			errs[pr] = addressRank(l, pr)
		}
	}
	parallel.Default().Run(&address, nb)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// addressRank finds rank pr's slot in each neighbor's Nbrs and checks that
// every coupling is returned: the exchange plans pair up only on a
// structurally symmetric matrix.
func addressRank(l *Layout, pr int) error {
	rd := l.Ranks[pr]
	rd.SlotInNbr = make([]int32, len(rd.Nbrs))
	for j, q := range rd.Nbrs {
		qd := l.Ranks[q]
		slot, ok := qd.NbrSlot(pr)
		if !ok {
			return fmt.Errorf("dmem: asymmetric coupling: rank %d couples into rank %d but not back", pr, q)
		}
		rd.SlotInNbr[j] = int32(slot)
		for _, li := range rd.MyBnd[j] {
			g := rd.Glob[li]
			s := sort.SearchInts(qd.ExtGlob, g)
			if s >= len(qd.ExtGlob) || qd.ExtGlob[s] != g {
				return fmt.Errorf("dmem: asymmetric coupling: row %d couples into rank %d but not back", g, q)
			}
		}
	}
	return nil
}

// rankBlockCount bounds the rank fan-out so at most a handful of position
// scratches (one per in-flight block, each a.N ints) are live at once.
func rankBlockCount(p int) int {
	w := parallel.Default().Workers()
	nb := 2 * w
	if nb > p {
		nb = p
	}
	if nb < 1 {
		nb = 1
	}
	return nb
}

// layoutScratch is the reusable extraction state: pos[g] is -1 when global
// row g is untouched, and otherwise holds g's slot in the current rank's
// ExtGlob (or 0 as a transient seen-marker while collecting). Every rank
// resets exactly the entries it touched, so a recycled scratch is all -1.
// ext collects a rank's external rows, then its external owners, before
// their exact-size copies are made; extNbr is the neighbor position of each
// ext slot. Both are overwritten by every rank.
type layoutScratch struct {
	pos    []int32
	ext    []int
	extNbr []int32
}

var layoutFree struct {
	mu   sync.Mutex
	list []*layoutScratch
}

func getLayoutScratch(n int) *layoutScratch {
	layoutFree.mu.Lock()
	var sc *layoutScratch
	if k := len(layoutFree.list); k > 0 {
		sc = layoutFree.list[k-1]
		layoutFree.list[k-1] = nil
		layoutFree.list = layoutFree.list[:k-1]
	}
	layoutFree.mu.Unlock()
	if sc == nil {
		sc = &layoutScratch{}
	}
	if len(sc.pos) < n {
		sc.pos = make([]int32, n)
		for i := range sc.pos {
			sc.pos[i] = -1
		}
	}
	return sc
}

func putLayoutScratch(sc *layoutScratch) {
	layoutFree.mu.Lock()
	layoutFree.list = append(layoutFree.list, sc)
	layoutFree.mu.Unlock()
}

// buildRank extracts rank p's local view. sc is the pooled extraction
// scratch (pos all -1 on entry, all -1 again on return): pos serves first as
// a seen-marker while collecting external rows and then as an O(1) global →
// ext-slot index, replacing the per-entry binary search and the per-rank
// hash sets of the original implementation.
func buildRank(a *sparse.CSR, l *Layout, p int, sc *layoutScratch) *RankData {
	rows, pos := l.Rows[p], sc.pos
	rd := &RankData{
		P:      p,
		Glob:   rows,
		LocPtr: make([]int, len(rows)+1),
		ExtPtr: make([]int, len(rows)+1),
		Diag:   make([]float64, len(rows)),
	}
	// Collect external rows first for stable ext indexing, counting the two
	// coupling classes on the way so their arrays are allocated exactly.
	ext := sc.ext[:0]
	nLoc, nExt := 0, 0
	for _, g := range rows {
		lo, hi := a.RowPtr[g], a.RowPtr[g+1]
		for _, c := range a.Col[lo:hi] {
			switch {
			case l.Part[c] != p:
				nExt++
				if pos[c] < 0 {
					pos[c] = 0
					ext = append(ext, c)
				}
			case c != g:
				nLoc++
			}
		}
	}
	sort.Ints(ext)
	rd.ExtGlob = append(make([]int, 0, len(ext)), ext...)
	for e, g := range rd.ExtGlob {
		pos[g] = int32(e)
		ext[e] = l.Part[g]
	}
	// Neighbor ranks: the sorted, deduplicated external owners.
	sort.Ints(ext)
	nn := 0
	for _, q := range ext {
		if nn == 0 || ext[nn-1] != q {
			ext[nn] = q
			nn++
		}
	}
	rd.Nbrs = append(make([]int, 0, nn), ext[:nn]...)
	sc.ext = ext
	rd.BndExt = make([][]int, nn)
	rd.MyBnd = make([][]int, nn)
	extNbr := sc.extNbr[:0]
	for e, g := range rd.ExtGlob {
		j, _ := rd.NbrSlot(l.Part[g])
		extNbr = append(extNbr, int32(j))
		rd.BndExt[j] = append(rd.BndExt[j], e)
	}
	sc.extNbr = extNbr

	// Local matrix entries, split by coupling class. Local rows li ascend,
	// so "already recorded in MyBnd[j]" is just a last-element check — no
	// per-neighbor seen set.
	rd.LocCol = make([]uint32, 0, nLoc)
	rd.LocVal = make([]float64, 0, nLoc)
	rd.ExtCol = make([]uint32, 0, nExt)
	rd.ExtVal = make([]float64, 0, nExt)
	for li, g := range rows {
		cols, vals := a.Row(g)
		for k, c := range cols {
			v := vals[k]
			if c == g {
				rd.Diag[li] = v
				continue
			}
			if l.Part[c] == p {
				rd.LocCol = append(rd.LocCol, uint32(l.Local[c]))
				rd.LocVal = append(rd.LocVal, v)
			} else {
				rd.ExtCol = append(rd.ExtCol, uint32(pos[c]))
				rd.ExtVal = append(rd.ExtVal, v)
				j := extNbr[pos[c]]
				if mb := rd.MyBnd[j]; len(mb) == 0 || mb[len(mb)-1] != li {
					rd.MyBnd[j] = append(rd.MyBnd[j], li)
				}
			}
		}
		rd.LocPtr[li+1] = len(rd.LocVal)
		rd.ExtPtr[li+1] = len(rd.ExtVal)
	}
	rd.NNZ = len(rd.LocVal) + len(rd.ExtVal)
	// Leave the scratch all -1 for the next rank.
	for _, g := range rd.ExtGlob {
		pos[g] = -1
	}
	return rd
}

// NbrSlot returns the position of rank q in Nbrs, and whether q is a
// neighbor at all. It is a binary search, for set-up and tests; the solvers
// carry the slot in their payloads (SlotInNbr).
func (rd *RankData) NbrSlot(q int) (int, bool) {
	j := sort.SearchInts(rd.Nbrs, q)
	return j, j < len(rd.Nbrs) && rd.Nbrs[j] == q
}

// M returns the number of local rows.
func (rd *RankData) M() int { return len(rd.Glob) }

// Degree returns the number of neighbor ranks.
func (rd *RankData) Degree() int { return len(rd.Nbrs) }
