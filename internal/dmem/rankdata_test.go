package dmem

import "slices"

// Layout's per-rank view, for the oracles in layout_oracle_test.go and
// kernel_oracle_test.go; no non-test code reads a rank as a value.

// RankData is a rank's share of a Layout as a value, which the oracles compare:
// a local matrix in split-CSR form with local row, local column and ext
// slot indices, and the exchange plans per neighbor position j. SlotInNbr
// and ExtGlob are built from the neighbors' ranges, and the split CSR
// (LocPtr … Diag, NNZ) from A through them: each row's entries in source
// column order, those whose column is another of the rank's rows into the
// local class (its local index), those whose column is in ExtGlob into the
// ext class (its slot), the diagonal as the value of the row's own column.
// The two per-neighbor offset arrays (ExtOff, MyOff) are copies rebased to
// start at zero; Glob, Nbrs and MyRows alias the layout and must not be
// written.
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
	m := r1 - r0
	// The layout keeps neither p's slots nor the rows behind its ext slots:
	// both are read from the neighbors' side.
	slots, extGlob := make([]int32, n1-n0), make([]int32, 0, e1-e0)
	for j, q := range l.neighbors(p) {
		slot, _ := slices.BinarySearch(l.neighbors(int(q)), int32(p))
		slots[j] = int32(slot)
		extGlob = append(extGlob, l.ghostRows(p, j, int32(slot))...)
	}
	local, ext := map[int32]uint32{}, map[int32]uint32{}
	for li, g := range l.glob[r0:r1] {
		local[g] = uint32(li)
	}
	for s, g := range extGlob {
		ext[g] = uint32(s)
	}
	rd := RankData{LocPtr: make([]int32, 1, m+1), ExtPtr: make([]int32, 1, m+1), Diag: make([]float64, m)}
	for li, g := range l.glob[r0:r1] {
		cols, vals := l.A.Row(int(g))
		for k, c := range cols {
			if c == g {
				rd.Diag[li] = vals[k]
			} else if t, ok := local[c]; ok {
				rd.LocCol, rd.LocVal = append(rd.LocCol, t), append(rd.LocVal, vals[k])
			} else {
				rd.ExtCol, rd.ExtVal = append(rd.ExtCol, ext[c]), append(rd.ExtVal, vals[k])
			}
		}
		rd.LocPtr = append(rd.LocPtr, int32(len(rd.LocCol)))
		rd.ExtPtr = append(rd.ExtPtr, int32(len(rd.ExtCol)))
	}
	rd.P, rd.Glob, rd.NNZ = p, l.glob[r0:r1:r1], len(rd.LocCol)+len(rd.ExtCol)
	rd.Nbrs, rd.SlotInNbr, rd.ExtGlob = l.nbrs[n0:n1:n1], slots, extGlob
	rd.ExtOff, rd.MyRows, rd.MyOff = rebased(l.nbrExtOff[n0:n1+1]), l.myRows[b0:b1:b1], rebased(l.nbrBndOff[n0:n1+1])
	return rd
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
