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
	"math"
	"slices"

	"southwell/internal/parallel"
	"southwell/internal/sparse"
)

// Layout is the static distribution of a matrix over P ranks: who owns
// which rows, and for every rank the local sparse structure plus the
// boundary/ghost indexing used for neighbor exchange. Building it
// corresponds to the paper's setup phase (METIS partition + neighbor
// discovery), which is not part of the measured solve.
//
// It is one split-CSR matrix whose rows are in rank order (rank 0's rows
// ascending, then rank 1's, …) plus the exchange plans, and each kind of
// array is one flat allocation. Four offset tables of P+1 entries give the
// range of each kind that rank p holds:
//
//	rows       [rowOff[p], rowOff[p+1])  glob, diag, locPtr, extPtr
//	neighbors  [nbrOff[p], nbrOff[p+1])  nbrs, slotInNbr, nbrExtOff, nbrBndOff
//	ext slots  [extOff[p], extOff[p+1])  extGlob
//	boundary   [bndOff[p], bndOff[p+1])  myRows
//
// so a rank is an index, there is no per-rank header, and the layout's size
// is what its ranks hold. Every index is 32 bits wide: NewLayout refuses a
// matrix whose n or nnz reaches 2³¹ (each flat total is at most nnz).
type Layout struct {
	A *sparse.CSR
	P int

	rowOff, nbrOff, extOff, bndOff []int32

	// Rows: glob[i] is the global id of rank-ordered row i, which is local
	// row i − rowOff[p] of its owner p, and diag[i] its diagonal entry.
	glob []int32
	diag []float64

	// Off-diagonal entries, split CSR: row i's local couplings are
	// locCol/locVal[locPtr[i]:locPtr[i+1]] (column: the owner's local row
	// index), its external couplings extCol/extVal[extPtr[i]:extPtr[i+1]]
	// (column: the owner's ext slot, counted from extOff[p]). Within a row
	// the source column order is preserved inside each class; local entries
	// target r[] and ext entries target extDelta[] (disjoint arrays), so the
	// split sweep applies the identical update sequence per memory location
	// as an interleaved walk would — the Gauss–Seidel bits are unchanged.
	// uint32 columns halve the index bandwidth of the hot sweep.
	locPtr []int32
	locCol []uint32
	locVal []float64
	extPtr []int32
	extCol []uint32
	extVal []float64

	// Neighbors. Position k of rank p, k in [nbrOff[p], nbrOff[p+1]), is
	// its (k − nbrOff[p])-th neighbor in ascending rank order: nbrs[k] is
	// that rank and slotInNbr[k] is p's position among the neighbor's own —
	// the index under which the neighbor files what p sends it.
	nbrs, slotInNbr []int32

	// Exchange plans, one contiguous range per neighbor position k, both in
	// ascending global row order — so the ext range of neighbor q here and
	// the boundary range of this rank on q list the same rows in the same
	// order, and a message body needs no index. extGlob[nbrExtOff[k]:
	// nbrExtOff[k+1]]: the global ids of the ext rows neighbor k owns; ext
	// slots are numbered in this order, so the ghost layer z and extDelta
	// hold one row per neighbor that a body is copied in and out of.
	// myRows[nbrBndOff[k]:nbrBndOff[k+1]]: the local rows that couple into
	// neighbor k (the boundary points β it ghosts). Both offset arrays have
	// one entry per neighbor position plus one: the ranges tile the arrays.
	nbrExtOff, nbrBndOff []int32
	extGlob              []int32
	myRows               []int32
}

// RankData is a rank's share of a Layout as a value, for tests and tools:
// a local matrix in split-CSR form with local row, local column and ext
// slot indices, and the exchange plans per neighbor position j. The four
// offset arrays (LocPtr, ExtPtr, ExtOff, MyOff) are copies rebased to start
// at zero; every other slice aliases the layout and must not be written.
type RankData struct {
	P    int     // this rank
	Glob []int32 // global row ids, ascending; local index = position

	LocPtr []int32
	LocCol []uint32
	LocVal []float64
	ExtPtr []int32
	ExtCol []uint32
	ExtVal []float64
	Diag   []float64
	NNZ    int // total off-diagonal entries, local + external

	Nbrs      []int32
	SlotInNbr []int32

	ExtGlob []int32
	ExtOff  []int32
	MyRows  []int32
	MyOff   []int32
}

// M returns the number of local rows.
func (rd RankData) M() int { return len(rd.Glob) }

// Rank returns rank p's share of the layout.
func (l *Layout) Rank(p int) RankData {
	r0, r1 := l.rowOff[p], l.rowOff[p+1]
	n0, n1 := l.nbrOff[p], l.nbrOff[p+1]
	e0, e1 := l.extOff[p], l.extOff[p+1]
	b0, b1 := l.bndOff[p], l.bndOff[p+1]
	c0, c1 := l.locPtr[r0], l.locPtr[r1]
	x0, x1 := l.extPtr[r0], l.extPtr[r1]
	return RankData{
		P:         p,
		Glob:      l.glob[r0:r1:r1],
		LocPtr:    rebased(l.locPtr[r0 : r1+1]),
		LocCol:    l.locCol[c0:c1:c1],
		LocVal:    l.locVal[c0:c1:c1],
		ExtPtr:    rebased(l.extPtr[r0 : r1+1]),
		ExtCol:    l.extCol[x0:x1:x1],
		ExtVal:    l.extVal[x0:x1:x1],
		Diag:      l.diag[r0:r1:r1],
		NNZ:       int(c1 - c0 + x1 - x0),
		Nbrs:      l.nbrs[n0:n1:n1],
		SlotInNbr: l.slotInNbr[n0:n1:n1],
		ExtGlob:   l.extGlob[e0:e1:e1],
		ExtOff:    rebased(l.nbrExtOff[n0 : n1+1]),
		MyRows:    l.myRows[b0:b1:b1],
		MyOff:     rebased(l.nbrBndOff[n0 : n1+1]),
	}
}

// rebased returns a copy of an offset range shifted to start at zero.
func rebased(off []int32) []int32 {
	out := make([]int32, len(off))
	for i, v := range off {
		out[i] = v - off[0]
	}
	return out
}

// rows returns the global ids of rank p's rows, ascending.
func (l *Layout) rows(p int) []int32 { return l.glob[l.rowOff[p]:l.rowOff[p+1]] }

// neighbors returns rank p's neighbor ranks, ascending.
func (l *Layout) neighbors(p int) []int32 { return l.nbrs[l.nbrOff[p]:l.nbrOff[p+1]] }

// localBlock returns rank p's diagonal and its rows' local-coupling
// pointers into locCol/locVal: the diagonal block A_pp.
func (l *Layout) localBlock(p int) (diag []float64, locPtr []int32) {
	r0, r1 := l.rowOff[p], l.rowOff[p+1]
	return l.diag[r0:r1], l.locPtr[r0 : r1+1]
}

// fitsIndex reports, as an error, a count the layout's 32-bit indices cannot
// hold: every offset and id it stores is below 2³¹.
func fitsIndex(what string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("dmem: %s = %d does not fit the layout's 32-bit indices", what, n)
	}
	return nil
}

// NewLayout distributes a (structurally symmetric) matrix over P ranks
// according to part. It validates the partition and the symmetry
// assumption the relaxation kernels rely on.
//
// It makes two passes over the ranks, so every array is allocated once at
// its exact size: the first counts what each rank holds, the second fills
// the flat arrays at the offsets the counts give. A third pass addresses
// the exchange plans across ranks. Ranks are independent within a pass
// (each writes only its own ranges from the read-only matrix and
// partition), so rank blocks fan out over the shared pool; block boundaries
// never influence the output, so the layout is identical for any worker
// count.
func NewLayout(a *sparse.CSR, part []int, p int) (*Layout, error) {
	if err := fitsIndex("n", a.N); err != nil {
		return nil, err
	}
	if err := fitsIndex("nnz", a.NNZ()); err != nil {
		return nil, err
	}
	if len(part) != a.N {
		return nil, fmt.Errorf("dmem: partition length %d != n %d", len(part), a.N)
	}
	l := &Layout{A: a, P: p}
	offs := make([]int32, 4*(p+1))
	l.rowOff, l.nbrOff, l.extOff, l.bndOff = offs[:p+1:p+1], offs[p+1:2*p+2:2*p+2], offs[2*p+2:3*p+3:3*p+3], offs[3*p+3:]
	for g, pr := range part {
		if pr < 0 || pr >= p {
			return nil, fmt.Errorf("dmem: row %d has invalid rank %d", g, pr)
		}
		l.rowOff[pr+1]++
	}
	for pr := 0; pr < p; pr++ {
		if l.rowOff[pr+1] == 0 {
			return nil, fmt.Errorf("dmem: rank %d owns no rows", pr)
		}
		l.rowOff[pr+1] += l.rowOff[pr]
	}
	// Rows in rank order, a counting sort of the partition; local[g] is
	// global row g's index within its owner.
	l.glob = make([]int32, a.N)
	local := make([]int32, a.N)
	next := slices.Clone(l.rowOff[:p])
	for g, pr := range part {
		i := next[pr]
		next[pr]++
		l.glob[i], local[g] = int32(g), i-l.rowOff[pr]
	}

	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	scratch := make([]layoutScratch, nb)
	var task parallel.Task

	// Pass 1: per row the coupling counts, per rank the neighbors, ext
	// slots and boundary entries; then prefix sums turn counts into offsets.
	l.locPtr, l.extPtr = make([]int32, a.N+1), make([]int32, a.N+1)
	task.F = func(b int) {
		sc := &scratch[b]
		sc.seen, sc.nbrSeen, sc.rowSeen = make([]int32, a.N), make([]int32, p), make([]int32, p)
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			l.countRank(part, pr, sc)
		}
		sc.nbrSeen, sc.rowSeen = nil, nil
	}
	parallel.Default().Run(&task, nb)
	for i := range a.N {
		l.locPtr[i+1] += l.locPtr[i]
		l.extPtr[i+1] += l.extPtr[i]
	}
	for pr := range p {
		l.nbrOff[pr+1] += l.nbrOff[pr]
		l.extOff[pr+1] += l.extOff[pr]
		l.bndOff[pr+1] += l.bndOff[pr]
	}

	// Pass 2: fill.
	nLoc, nExt, nNbr := l.locPtr[a.N], l.extPtr[a.N], l.nbrOff[p]
	l.diag = make([]float64, a.N)
	l.locCol, l.locVal = make([]uint32, nLoc), make([]float64, nLoc)
	l.extCol, l.extVal = make([]uint32, nExt), make([]float64, nExt)
	l.nbrs, l.slotInNbr = make([]int32, nNbr), make([]int32, nNbr)
	l.nbrExtOff, l.nbrBndOff = make([]int32, nNbr+1), make([]int32, nNbr+1)
	l.extGlob, l.myRows = make([]int32, l.extOff[p]), make([]int32, l.bndOff[p])
	task.F = func(b int) {
		sc := &scratch[b]
		nbrBuf := make([]int32, 2*sc.maxSlots) // a rank has at most as many neighbors as ext slots
		sc.pos, sc.extNbr, sc.lastRow = make([]int32, a.N), nbrBuf[:sc.maxSlots], nbrBuf[sc.maxSlots:]
		sc.keys = make([]int64, 0, sc.maxSlots)
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			l.fillRank(part, local, pr, sc)
		}
	}
	parallel.Default().Run(&task, nb)

	// Pass 3: cross-rank slot addressing (needs every rank's neighbors and
	// ext rows). A block stops at its first error and the lowest block's
	// wins, so the error reported is the lowest rank's, deterministically.
	errs := make([]error, nb)
	task.F = func(b int) {
		for pr := blocks[b].Lo; pr < blocks[b].Hi && errs[b] == nil; pr++ {
			errs[b] = l.addressRank(pr)
		}
	}
	parallel.Default().Run(&task, nb)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rankBlockCount bounds the rank fan-out so at most a handful of
// extraction scratches (one per block, each two a.N-long int32 arrays) are
// live at once.
func rankBlockCount(p int) int {
	return max(1, min(2*parallel.Default().Workers(), p))
}

// layoutScratch is one rank block's extraction state for one NewLayout
// call. seen[c] == stamp marks global row c as met by the rank being
// visited (stamp advances per rank visit, so nothing is ever reset);
// nbrSeen (stamped the same way) and rowSeen (stamped g+1 while row g is
// walked) do the same per owner rank while pass 1 counts neighbors and
// boundary entries. maxSlots, the block's largest ext-slot count, sizes
// pass 2's buffers: pos, the O(1) global → ext-slot index of the current
// rank; extNbr, each of its ext slots' neighbor position; lastRow, per
// neighbor position the last row found coupling into it; keys, the sort
// keys the ext slots come out of.
type layoutScratch struct {
	stamp                int32
	seen                 []int32
	nbrSeen, rowSeen     []int32
	maxSlots             int
	pos, extNbr, lastRow []int32
	keys                 []int64
}

// countRank is pass 1 for rank pr: it writes each of its rows' local and
// external coupling counts to locPtr/extPtr[i+1], and its neighbor, ext-slot
// and boundary-entry counts to nbrOff/extOff/bndOff[pr+1].
func (l *Layout) countRank(part []int, pr int, sc *layoutScratch) {
	sc.stamp++
	nNbr, nSlots, nBnd := 0, 0, 0
	for i := l.rowOff[pr]; i < l.rowOff[pr+1]; i++ {
		g := l.glob[i]
		cols, _ := l.A.Row(int(g))
		var loc, ext int32
		for _, c := range cols {
			q := part[c]
			switch {
			case q != pr:
				ext++
				if sc.seen[c] != sc.stamp {
					sc.seen[c] = sc.stamp
					nSlots++
					if sc.nbrSeen[q] != sc.stamp {
						sc.nbrSeen[q] = sc.stamp
						nNbr++
					}
				}
				if sc.rowSeen[q] != g+1 {
					sc.rowSeen[q] = g + 1
					nBnd++
				}
			case c != g:
				loc++
			}
		}
		l.locPtr[i+1], l.extPtr[i+1] = loc, ext
	}
	l.nbrOff[pr+1], l.extOff[pr+1], l.bndOff[pr+1] = int32(nNbr), int32(nSlots), int32(nBnd)
	sc.maxSlots = max(sc.maxSlots, nSlots)
}

// fillRank is pass 2 for rank pr: it writes the rank's ranges of every flat
// array. The ext slots come out of one sort of owner<<32|global id keys, so
// they are grouped by owner and ascending within one, and the owners met on
// the way are the neighbor ranks; the boundary rows out of a counting sort
// by neighbor position, in which rows arrive in ascending order.
func (l *Layout) fillRank(part []int, local []int32, pr int, sc *layoutScratch) {
	r0, r1 := l.rowOff[pr], l.rowOff[pr+1]
	n0, n1, e0, b0 := l.nbrOff[pr], l.nbrOff[pr+1], l.extOff[pr], l.bndOff[pr]
	sc.stamp++
	keys := sc.keys[:0]
	for _, g := range l.glob[r0:r1] {
		cols, _ := l.A.Row(int(g))
		for _, c := range cols {
			if part[c] != pr && sc.seen[c] != sc.stamp {
				sc.seen[c] = sc.stamp
				keys = append(keys, int64(part[c])<<32|int64(c))
			}
		}
	}
	slices.Sort(keys)
	nk := n0 - 1 // the current owner's neighbor position
	for e, key := range keys {
		if e == 0 || key>>32 != keys[e-1]>>32 {
			nk++
			l.nbrs[nk] = int32(key >> 32)
		}
		g := int32(uint32(key))
		l.extGlob[e0+int32(e)], sc.pos[g], sc.extNbr[e] = g, int32(e), nk-n0
		l.nbrExtOff[nk+1] = e0 + int32(e) + 1
	}

	// Matrix entries, split by coupling class; bnd[j] (zero from make)
	// counts the distinct rows coupling into neighbor position j, lastRow[j]
	// being the last one.
	bnd, lastRow := l.nbrBndOff[n0+1:n1+1], sc.lastRow[:n1-n0]
	for j := range lastRow {
		lastRow[j] = -1
	}
	for i := r0; i < r1; i++ {
		g := l.glob[i]
		kl, ke := l.locPtr[i], l.extPtr[i]
		cols, vals := l.A.Row(int(g))
		for k, c := range cols {
			v := vals[k]
			switch {
			case c == g:
				l.diag[i] = v
			case part[c] == pr:
				l.locCol[kl], l.locVal[kl] = uint32(local[c]), v
				kl++
			default:
				s := sc.pos[c]
				l.extCol[ke], l.extVal[ke] = uint32(s), v
				ke++
				if j := sc.extNbr[s]; lastRow[j] != i {
					lastRow[j] = i
					bnd[j]++
				}
			}
		}
	}
	// Boundary rows, grouped by neighbor, ascending: bnd[j] becomes the
	// start of j's range and advances over it as the rows are placed, so it
	// ends where j's range does. Every neighbor owns an ext row, so none of
	// the ranges is empty.
	next := b0
	for j, c := range bnd {
		bnd[j], next = next, next+c
		lastRow[j] = -1
	}
	for i := r0; i < r1; i++ {
		for _, s := range l.extCol[l.extPtr[i]:l.extPtr[i+1]] {
			if j := sc.extNbr[s]; lastRow[j] != i {
				lastRow[j] = i
				l.myRows[bnd[j]] = i - r0
				bnd[j]++
			}
		}
	}
}

// addressRank finds rank pr's slot among each neighbor's neighbors and
// checks that every coupling is returned: the exchange plans pair up only
// on a structurally symmetric matrix.
func (l *Layout) addressRank(pr int) error {
	glob := l.rows(pr)
	for k := l.nbrOff[pr]; k < l.nbrOff[pr+1]; k++ {
		q := int(l.nbrs[k])
		slot, ok := slices.BinarySearch(l.neighbors(q), int32(pr))
		if !ok {
			return fmt.Errorf("dmem: asymmetric coupling: rank %d couples into rank %d but not back", pr, q)
		}
		l.slotInNbr[k] = int32(slot)
		kq := int(l.nbrOff[q]) + slot
		mine := l.extGlob[l.nbrExtOff[kq]:l.nbrExtOff[kq+1]] // q's ghosts of this rank's rows, ascending
		bnd := l.myRows[l.nbrBndOff[k]:l.nbrBndOff[k+1]]
		if len(mine) > len(bnd) {
			return fmt.Errorf("dmem: asymmetric coupling: rank %d ghosts %d rows of rank %d but only %d couple into it", q, len(mine), pr, len(bnd))
		}
		for _, li := range bnd {
			if _, ok := slices.BinarySearch(mine, glob[li]); !ok {
				return fmt.Errorf("dmem: asymmetric coupling: row %d couples into rank %d but not back", glob[li], q)
			}
		}
	}
	return nil
}
