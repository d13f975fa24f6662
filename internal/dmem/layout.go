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
	"slices"
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
	Ranks []*RankData
}

// ownership is what NewLayout derives from the partition for buildRank and
// drops when it returns: rows[p] becomes rank p's Glob.
type ownership struct {
	part  []int   // owner rank of each global row
	rows  [][]int // rows[p]: global rows owned by p, ascending
	local []int   // local[g]: local index of global row g within its owner
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

	// Neighbors, ascending rank order. SlotInNbr[j] is this rank's own
	// position in neighbor j's Nbrs: the index under which neighbor j files
	// what this rank sends it.
	Nbrs      []int
	SlotInNbr []int32

	// Exchange plans, flat, one contiguous range per neighbor position j, both
	// in ascending global row order — so the ext range of neighbor j here and
	// MyBnd on neighbor j list the same rows in the same order, and a message
	// body needs no index. ExtGlob[ExtOff[j]:ExtOff[j+1]]: the global ids of
	// the ext rows neighbor j owns; ext slots are numbered in this order, so
	// the ghost layer z and extDelta hold one row per neighbor that a body is
	// copied in and out of. MyRows[MyOff[j]:MyOff[j+1]]: the local rows that
	// couple into neighbor j (the boundary points β it ghosts).
	ExtGlob []int
	ExtOff  []int32
	MyRows  []int32
	MyOff   []int32
}

// MyBnd returns the local rows that couple into neighbor j, ascending.
func (rd *RankData) MyBnd(j int) []int32 { return rd.MyRows[rd.MyOff[j]:rd.MyOff[j+1]] }

// NewLayout distributes a (structurally symmetric) matrix over P ranks
// according to part. It validates the partition and the symmetry
// assumption the relaxation kernels rely on.
func NewLayout(a *sparse.CSR, part []int, p int) (*Layout, error) {
	if len(part) != a.N {
		return nil, fmt.Errorf("dmem: partition length %d != n %d", len(part), a.N)
	}
	own := ownership{part: part, rows: make([][]int, p), local: make([]int, a.N)}
	off := make([]int, p+1) // rows are carved from one slab, count-then-fill
	for g, pr := range part {
		if pr < 0 || pr >= p {
			return nil, fmt.Errorf("dmem: row %d has invalid rank %d", g, pr)
		}
		off[pr+1]++
	}
	slab := make([]int, a.N)
	for pr := 0; pr < p; pr++ {
		if off[pr+1] == 0 {
			return nil, fmt.Errorf("dmem: rank %d owns no rows", pr)
		}
		off[pr+1] += off[pr]
		own.rows[pr] = slab[off[pr]:off[pr]:off[pr+1]]
	}
	for g, pr := range part {
		own.local[g] = len(own.rows[pr])
		own.rows[pr] = append(own.rows[pr], g)
	}

	// Per-rank extraction: ranks are independent (each writes only its own
	// RankData from the read-only matrix and partition), so rank blocks fan
	// out over the shared pool. Each block reuses one pooled position
	// scratch across its ranks. Block boundaries never influence the
	// per-rank output, so the layout is identical for any worker count.
	l := &Layout{A: a, P: p, Ranks: make([]*RankData, p)}
	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	var build parallel.Task
	build.F = func(b int) {
		sc := getLayoutScratch(a.N)
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			l.Ranks[pr] = buildRank(a, &own, pr, sc)
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
		mine := qd.ExtGlob[qd.ExtOff[slot]:qd.ExtOff[slot+1]] // q's ghosts of this rank's rows, ascending
		if len(mine) > len(rd.MyBnd(j)) {
			return fmt.Errorf("dmem: asymmetric coupling: rank %d ghosts %d rows of rank %d but only %d couple into it", q, len(mine), pr, len(rd.MyBnd(j)))
		}
		for _, li := range rd.MyBnd(j) {
			if _, ok := slices.BinarySearch(mine, rd.Glob[li]); !ok {
				return fmt.Errorf("dmem: asymmetric coupling: row %d couples into rank %d but not back", rd.Glob[li], q)
			}
		}
	}
	return nil
}

// rankBlockCount bounds the rank fan-out so at most a handful of position
// scratches (one per in-flight block, each a.N ints) are live at once.
func rankBlockCount(p int) int {
	return max(1, min(2*parallel.Default().Workers(), p))
}

// layoutScratch is the reusable extraction state: pos[g] is -1 when global
// row g is untouched, and otherwise holds g's slot in the current rank's
// ExtGlob (or 0 as a transient seen-marker while collecting). Every rank
// resets exactly the entries it touched, so a recycled scratch is all -1.
// ext and bnd collect the sort keys the two exchange plans come out of
// (owner<<32|global id per external row, neighbor<<32|local row per external
// coupling); extNbr is each ext slot's neighbor position. Every rank
// overwrites all three.
type layoutScratch struct {
	pos      []int32
	ext, bnd []int64
	extNbr   []int32
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
	if sc == nil || len(sc.pos) < n {
		sc = &layoutScratch{pos: make([]int32, n)}
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

// buildRank extracts rank p's local view in two passes over its rows, so
// every array is allocated once at its exact size: the first collects the
// external rows and counts the coupling classes, the second fills. sc is the
// pooled extraction scratch; its pos (all -1 on entry and on return) is first
// the seen-marker of the collection, then the O(1) global → ext-slot index.
func buildRank(a *sparse.CSR, own *ownership, p int, sc *layoutScratch) *RankData {
	rows, pos, part := own.rows[p], sc.pos, own.part
	rd := &RankData{
		P:      p,
		Glob:   rows,
		LocPtr: make([]int, len(rows)+1),
		ExtPtr: make([]int, len(rows)+1),
		Diag:   make([]float64, len(rows)),
	}
	ext := sc.ext[:0]
	nLoc, nExt := 0, 0
	for _, g := range rows {
		cols, _ := a.Row(g)
		for _, c := range cols {
			switch {
			case part[c] != p:
				nExt++
				if pos[c] < 0 {
					pos[c] = 0
					ext = append(ext, int64(part[c])<<32|int64(c))
				}
			case c != g:
				nLoc++
			}
		}
	}
	// Ext slots: sorted by owner<<32|global id, so grouped by owner and
	// ascending within one. The owners met on the way are the neighbor ranks.
	slices.Sort(ext)
	nn := 0
	for e, k := range ext {
		if e == 0 || k>>32 != ext[e-1]>>32 {
			nn++
		}
	}
	rd.ExtGlob = make([]int, len(ext))
	rd.Nbrs = make([]int, 0, nn)
	offs := make([]int32, 2*(nn+1))
	rd.ExtOff, rd.MyOff = offs[:nn+1:nn+1], offs[nn+1:]
	extNbr := sc.extNbr[:0]
	for e, k := range ext {
		if e == 0 || k>>32 != ext[e-1]>>32 {
			rd.Nbrs = append(rd.Nbrs, int(k>>32))
		}
		g := int(uint32(k))
		rd.ExtGlob[e], pos[g] = g, int32(e)
		rd.ExtOff[len(rd.Nbrs)] = int32(e + 1)
		extNbr = append(extNbr, int32(len(rd.Nbrs)-1))
	}

	// Local matrix entries, split by coupling class; bnd collects a
	// (neighbor, row) key per external coupling.
	bnd := sc.bnd[:0]
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
			if part[c] == p {
				rd.LocCol = append(rd.LocCol, uint32(own.local[c]))
				rd.LocVal = append(rd.LocVal, v)
			} else {
				rd.ExtCol = append(rd.ExtCol, uint32(pos[c]))
				rd.ExtVal = append(rd.ExtVal, v)
				bnd = append(bnd, int64(extNbr[pos[c]])<<32|int64(li))
			}
		}
		rd.LocPtr[li+1] = len(rd.LocVal)
		rd.ExtPtr[li+1] = len(rd.ExtVal)
	}
	rd.NNZ = len(rd.LocVal) + len(rd.ExtVal)
	// Boundary rows: the distinct keys, grouped by neighbor, ascending row.
	// Every neighbor owns an ext row, so none of its ranges is empty.
	slices.Sort(bnd)
	bnd = slices.Compact(bnd)
	rd.MyRows = make([]int32, len(bnd))
	for i, k := range bnd {
		rd.MyRows[i] = int32(k)
		rd.MyOff[k>>32+1] = int32(i + 1)
	}
	// Leave the scratch all -1 for the next rank.
	for _, g := range rd.ExtGlob {
		pos[g] = -1
	}
	sc.ext, sc.extNbr, sc.bnd = ext, extNbr, bnd
	return rd
}

// NbrSlot returns the position of rank q in Nbrs, and whether q is a
// neighbor at all. It is a binary search, for set-up and tests; the solvers
// carry the slot in their payloads (SlotInNbr).
func (rd *RankData) NbrSlot(q int) (int, bool) {
	return slices.BinarySearch(rd.Nbrs, q)
}

// M returns the number of local rows.
func (rd *RankData) M() int { return len(rd.Glob) }

// Degree returns the number of neighbor ranks.
func (rd *RankData) Degree() int { return len(rd.Nbrs) }
