package dmem

import "slices"

// Layout's per-rank view, for the oracles in layout_oracle_test.go and
// kernel_oracle_test.go; no non-test code reads a rank as a value.

// RankData is a rank's share of a Layout as a value, which the oracles compare:
// a local matrix in split-CSR form with local row, local column and ext
// slot indices, and the exchange plans per neighbor position j. The four
// offset arrays (LocPtr, ExtPtr, ExtOff, MyOff) are copies rebased to start
// at zero, SlotInNbr and ExtGlob are built from the neighbors' ranges; every
// other slice aliases the layout and must not be written.
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
	// The layout keeps neither p's slots nor the rows behind its ext slots:
	// both are read from the neighbors' side.
	slots, extGlob := make([]int32, n1-n0), make([]int32, 0, e1-e0)
	for j, q := range l.neighbors(p) {
		slot, _ := slices.BinarySearch(l.neighbors(int(q)), int32(p))
		slots[j] = int32(slot)
		extGlob = append(extGlob, l.ghostRows(p, j, int32(slot))...)
	}
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
		SlotInNbr: slots,
		ExtGlob:   extGlob,
		ExtOff:    rebased(l.nbrExtOff[n0 : n1+1]),
		MyRows:    l.myRows[b0:b1:b1],
		MyOff:     rebased(l.nbrBndOff[n0 : n1+1]),
	}
}

// neighbors returns rank p's neighbor ranks, ascending.
func (l *Layout) neighbors(p int) []int32 { return l.nbrs[l.nbrOff[p]:l.nbrOff[p+1]] }

// ghostRows returns the global ids behind rank p's ghost row j, read from
// the sending side: the boundary rows toward p of neighbor q = nbrs(p)[j],
// at q's neighbor position slot, through q's rows — the range a solve
// initializes the ghost row from.
func (l *Layout) ghostRows(p, j int, slot int32) []int32 {
	q := int(l.neighbors(p)[j])
	k := l.nbrOff[q] + slot
	rows, bnd := l.rows(q), l.myRows[l.nbrBndOff[k]:l.nbrBndOff[k+1]]
	out := make([]int32, len(bnd))
	for i, li := range bnd {
		out[i] = rows[li]
	}
	return out
}

// rebased returns a copy of an offset range shifted to start at zero.
func rebased(off []int32) []int32 {
	out := make([]int32, len(off))
	for i, v := range off {
		out[i] = v - off[0]
	}
	return out
}
