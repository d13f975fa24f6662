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
// It reads the matrix itself, A, for every value and every column, a_ii
// included: beside it the layout keeps the rows in rank order and the
// exchange plans, each kind of array one flat allocation, and nothing per
// entry of A and no float. Four offset tables of P+1 entries give the range
// of each kind that rank p holds:
//
//	rows       [rowOff[p], rowOff[p+1])  glob
//	neighbors  [nbrOff[p], nbrOff[p+1])  nbrs, nbrExtOff, nbrBndOff
//	ext slots  [extOff[p], extOff[p+1])  (numbered only: z and extDelta in the run state)
//	boundary   [bndOff[p], bndOff[p+1])  myRows
//
// so a rank is an index, there is no per-rank header, and the layout's size
// is what its ranks hold. Each exchange plan is stored once, on the sending
// side (myRows): the rows behind a rank's ext slots are its neighbors'
// boundary rows toward it, and the slot under which a neighbor files it is
// its position in that neighbor's ascending list, which the run state
// assigns in one walk over the ranks. Every index is 32 bits wide:
// NewLayout refuses a matrix whose n or nnz reaches 2³¹ (each flat total is
// at most nnz).
type Layout struct {
	A *sparse.CSR
	P int

	rowOff, nbrOff, extOff, bndOff []int32

	// Rows: glob[i] is the global id of rank-ordered row i, which is local
	// row i − rowOff[p] of its owner p. A relaxation walks A's own columns,
	// in A's numbering, and divides by the row's one entry in column g
	// (relaxSweep), so no entry of A needs an index or a copy of the
	// layout's.
	glob []int32

	// Neighbors. Position k of rank p, k in [nbrOff[p], nbrOff[p+1]), is
	// its (k − nbrOff[p])-th neighbor in ascending rank order: nbrs[k] is
	// that rank.
	nbrs []int32

	// Exchange plans, one contiguous range per neighbor position k, both in
	// ascending global row order. [nbrExtOff[k], nbrExtOff[k+1]): the ext
	// slots of the rows neighbor k owns, so the ghost layer z and extDelta
	// hold one row per neighbor that a body is copied in and out of.
	// myRows[nbrBndOff[k]:nbrBndOff[k+1]]: the local rows that couple into
	// neighbor k (the boundary points β it ghosts). The ext range of
	// neighbor q here and the boundary range of this rank on q list the same
	// rows in the same order, so a message body needs no index and the rows
	// behind an ext range are read from the owner's boundary range. Both
	// offset arrays have one entry per neighbor position plus one: the
	// ranges tile their ranks' ranges.
	nbrExtOff, nbrBndOff []int32
	myRows               []int32
}

// rows returns the global ids of rank p's rows, ascending.
func (l *Layout) rows(p int) []int32 { return l.glob[l.rowOff[p]:l.rowOff[p+1]] }

// extRows returns the global id of the row behind every ext slot, flat in
// slot order (rank p's are [extOff[p], extOff[p+1])), read from the sending
// side: ghost row j of rank pr holds neighbor q's boundary rows toward pr,
// which q keeps at its own neighbor position of pr. Ranks are visited in
// ascending order and each visits its neighbors in ascending order, so that
// position is where q's cursor stands, cur[q]: the count of ranks that
// visited q before pr. The layout keeps no copy; a run state keeps one
// (runState.extGlob).
func (l *Layout) extRows() []int32 {
	ids := make([]int32, l.extOff[l.P])
	cur := slices.Clone(l.nbrOff[:l.P])
	for k, q := range l.nbrs {
		kq := cur[q]
		cur[q]++
		rows := l.glob[l.rowOff[q]:]
		for i, li := range l.myRows[l.nbrBndOff[kq]:l.nbrBndOff[kq+1]] {
			ids[l.nbrExtOff[k]+int32(i)] = rows[li]
		}
	}
	return ids
}

// fitsIndex reports, as an error, a count the layout's 32-bit indices cannot
// hold: every offset and id it stores is below 2³¹.
func fitsIndex(what string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("dmem: %s = %d does not fit the layout's 32-bit indices", what, n)
	}
	return nil
}

// NewLayout distributes a matrix over P ranks according to part. It
// validates P and the partition, then refuses, before the passes, any
// matrix sparse.CSR.Relaxable refuses: one that is malformed, holds a
// non-finite value, lacks a nonzero diagonal entry in some row (a
// relaxation reads a_ii from A and divides by it) or is not structurally
// symmetric (every relaxation reads row i as column i, and only then do
// the exchange plans pair up), its error prefixed "dmem: ". Finite entries
// are also what a zero start relies on (runState.reset takes r₀ = b
// there). The layout keeps a and reads its values on every relaxation, so
// a must not change after NewLayout.
//
// It makes two passes over the ranks, so every array is allocated once at
// its exact size: the first counts what each rank holds, the second fills
// the flat arrays at the offsets the counts give. Ranks are independent
// within these passes (each writes only its own ranges from the read-only
// matrix and partition), so rank blocks fan out over parallel.For; block
// boundaries never influence the output, so the layout is identical for any
// worker count.
func NewLayout(a *sparse.CSR, part []int, p int) (*Layout, error) {
	if a == nil {
		return nil, fmt.Errorf("dmem: nil matrix")
	}
	if p < 1 {
		return nil, fmt.Errorf("dmem: P = %d, want >= 1", p)
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
	// The gate's mirror walk takes glob as its cursor, before the counting
	// sort fills it with the rows in rank order.
	l.glob = make([]int32, a.N)
	if err := a.Relaxable(l.glob); err != nil {
		return nil, fmt.Errorf("dmem: %w", err)
	}
	next := slices.Clone(l.rowOff[:p])
	for g, pr := range part {
		l.glob[next[pr]] = int32(g)
		next[pr]++
	}

	nb := rankBlockCount(p)
	scratch := make([]layoutScratch, nb)

	// Pass 1: per rank the neighbors, ext slots and boundary entries; then
	// prefix sums turn counts into offsets.
	parallel.For(nb, func(b int) {
		sc := &scratch[b]
		sc.seen, sc.nbrSeen, sc.rowSeen = make([]int32, a.N), make([]int32, p), make([]int32, p)
		for pr := b * p / nb; pr < (b+1)*p/nb; pr++ {
			l.countRank(part, pr, sc)
		}
		sc.nbrSeen, sc.rowSeen = nil, nil
	})
	for pr := range p {
		l.nbrOff[pr+1] += l.nbrOff[pr]
		l.extOff[pr+1] += l.extOff[pr]
		l.bndOff[pr+1] += l.bndOff[pr]
	}

	// Pass 2: fill.
	nNbr := l.nbrOff[p]
	l.nbrs = make([]int32, nNbr)
	l.nbrExtOff, l.nbrBndOff = make([]int32, nNbr+1), make([]int32, nNbr+1)
	l.myRows = make([]int32, l.bndOff[p])
	parallel.For(nb, func(b int) {
		sc := &scratch[b]
		nbrBuf := make([]int32, 2*sc.maxSlots) // a rank has at most as many neighbors as ext slots
		sc.pos, sc.extNbr, sc.lastRow = make([]int32, a.N), nbrBuf[:sc.maxSlots], nbrBuf[sc.maxSlots:]
		sc.keys = make([]int64, 0, max(sc.maxSlots, sc.maxBnd))
		for pr := b * p / nb; pr < (b+1)*p/nb; pr++ {
			l.fillRank(part, pr, sc)
		}
	})
	return l, nil
}

// rankBlockCount bounds the rank fan-out so at most a handful of
// extraction scratches (one per block, each two a.N-long int32 arrays) are
// live at once.
func rankBlockCount(p int) int {
	return max(1, min(2*parallel.Workers(), p))
}

// layoutScratch is one rank block's extraction state for one NewLayout
// call. seen[c] == stamp marks global row c as met by the rank being
// visited (stamp advances per rank visit, so nothing is ever reset);
// nbrSeen (stamped the same way) and rowSeen (stamped g+1 while row g is
// walked) do the same per owner rank while pass 1 counts neighbors and
// boundary entries. maxSlots and maxBnd, the block's largest ext-slot and
// boundary-entry counts, size pass 2's buffers: pos, the O(1) global →
// ext-slot index of the current rank; extNbr, each of its ext slots'
// neighbor position; lastRow, per neighbor position the last row found
// coupling into it; keys, the sort keys the ext slots come out of, then the
// (neighbor position, row) pairs the boundary rows do.
type layoutScratch struct {
	stamp                int32
	seen                 []int32
	nbrSeen, rowSeen     []int32
	maxSlots, maxBnd     int
	pos, extNbr, lastRow []int32
	keys                 []int64
}

// countRank is pass 1 for rank pr: it writes its neighbor, ext-slot and
// boundary-entry counts to nbrOff/extOff/bndOff[pr+1].
func (l *Layout) countRank(part []int, pr int, sc *layoutScratch) {
	sc.stamp++
	nNbr, nSlots, nBnd := 0, 0, 0
	for _, g := range l.rows(pr) {
		cols, _ := l.A.Row(int(g))
		for _, c := range cols {
			if q := part[c]; q != pr {
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
			}
		}
	}
	l.nbrOff[pr+1], l.extOff[pr+1], l.bndOff[pr+1] = int32(nNbr), int32(nSlots), int32(nBnd)
	sc.maxSlots, sc.maxBnd = max(sc.maxSlots, nSlots), max(sc.maxBnd, nBnd)
}

// fillRank is pass 2 for rank pr: it writes the rank's ranges of every flat
// array. The ext slots come out of one sort of owner<<32|global id keys, so
// they are grouped by owner and ascending within one, and the owners met on
// the way are the neighbor ranks; the boundary rows out of a counting sort
// by neighbor position, in which rows arrive in ascending order.
func (l *Layout) fillRank(part []int, pr int, sc *layoutScratch) {
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
		sc.pos[g], sc.extNbr[e] = int32(e), nk-n0
		l.nbrExtOff[nk+1] = e0 + int32(e) + 1
	}

	// Each row's entries: bnd[j] (zero from make) counts the distinct rows
	// coupling into neighbor position j, lastRow[j] being the last one, and
	// pairs lists each (j, row) as it is met, rows ascending.
	pairs := keys[:0]
	bnd, lastRow := l.nbrBndOff[n0+1:n1+1], sc.lastRow[:n1-n0]
	for j := range lastRow {
		lastRow[j] = -1
	}
	for i := r0; i < r1; i++ {
		cols, _ := l.A.Row(int(l.glob[i]))
		for _, c := range cols {
			if part[c] == pr {
				continue
			}
			if j := sc.extNbr[sc.pos[c]]; lastRow[j] != i {
				lastRow[j] = i
				bnd[j]++
				pairs = append(pairs, int64(j)<<32|int64(i-r0))
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
	}
	for _, jr := range pairs {
		j := jr >> 32
		l.myRows[bnd[j]] = int32(uint32(jr))
		bnd[j]++
	}
}
