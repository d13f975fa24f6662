package dmem

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// The layout as it was built before it became flat arrays: one RankData per
// rank, each built by buildRank and addressed by addressRank, kept verbatim
// here (names prefixed "old") as the oracle the flat layout's per-rank view
// must equal element for element.

// oldLayout is the per-rank layout: A, P and one *oldRankData per rank.
type oldLayout struct {
	A     *sparse.CSR
	P     int
	Ranks []*oldRankData
}

// oldOwnership is what NewLayout derives from the partition for oldBuildRank and
// drops when it returns: rows[p] becomes rank p's Glob.
type oldOwnership struct {
	part  []int   // owner rank of each global row
	rows  [][]int // rows[p]: global rows owned by p, ascending
	local []int   // local[g]: local index of global row g within its owner
}

// oldRankData is one rank's static view: a local matrix in split-CSR form
// where each row's entries are partitioned into local couplings (column
// owned by this rank) and external couplings (column owned by a neighbor),
// plus boundary exchange plans.
type oldRankData struct {
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
func (rd *oldRankData) MyBnd(j int) []int32 { return rd.MyRows[rd.MyOff[j]:rd.MyOff[j+1]] }

// oldAddressRank finds rank pr's slot in each neighbor's Nbrs and checks that
// every coupling is returned: the exchange plans pair up only on a
// structurally symmetric matrix.
func oldAddressRank(l *oldLayout, pr int) error {
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

// oldLayoutScratch is the reusable extraction state: pos[g] is -1 when global
// row g is untouched, and otherwise holds g's slot in the current rank's
// ExtGlob (or 0 as a transient seen-marker while collecting). Every rank
// resets exactly the entries it touched, so a recycled scratch is all -1.
// ext and bnd collect the sort keys the two exchange plans come out of
// (owner<<32|global id per external row, neighbor<<32|local row per external
// coupling); extNbr is each ext slot's neighbor position. Every rank
// overwrites all three.
type oldLayoutScratch struct {
	pos      []int32
	ext, bnd []int64
	extNbr   []int32
}

// oldBuildRank extracts rank p's local view in two passes over its rows, so
// every array is allocated once at its exact size: the first collects the
// external rows and counts the coupling classes, the second fills. sc is the
// pooled extraction scratch; its pos (all -1 on entry and on return) is first
// the seen-marker of the collection, then the O(1) global → ext-slot index.
func oldBuildRank(a *sparse.CSR, own *oldOwnership, p int, sc *oldLayoutScratch) *oldRankData {
	rows, pos, part := own.rows[p], sc.pos, own.part
	rd := &oldRankData{
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
			case int(c) != g:
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
			if int(c) == g {
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
func (rd *oldRankData) NbrSlot(q int) (int, bool) {
	return slices.BinarySearch(rd.Nbrs, q)
}

// M returns the number of local rows.
func (rd *oldRankData) M() int { return len(rd.Glob) }

// Degree returns the number of neighbor ranks.
func (rd *oldRankData) Degree() int { return len(rd.Nbrs) }

// oldNewLayout is the old NewLayout, run on one goroutine with one scratch:
// its rank blocks never influenced the output.
func oldNewLayout(a *sparse.CSR, part []int, p int) (*oldLayout, error) {
	if len(part) != a.N {
		return nil, fmt.Errorf("dmem: partition length %d != n %d", len(part), a.N)
	}
	own := oldOwnership{part: part, rows: make([][]int, p), local: make([]int, a.N)}
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
	l := &oldLayout{A: a, P: p, Ranks: make([]*oldRankData, p)}
	sc := &oldLayoutScratch{pos: make([]int32, a.N)}
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	for pr := 0; pr < p; pr++ {
		l.Ranks[pr] = oldBuildRank(a, &own, pr, sc)
	}
	for pr := 0; pr < p; pr++ {
		if err := oldAddressRank(l, pr); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// layoutShape is a matrix, its partition and the rank count.
type layoutShape struct {
	name string
	a    *sparse.CSR
	part []int
	p    int
}

// e2eShapes are the end-to-end benchmark's four layouts: Flan_1565 at
// P = 256 (suite256), 4096 (wide4k) and 64 (direct64), and Poisson2D(256²)
// at P = 2048 (pointload2k), each matrix scaled and partitioned with seed 1.
// Built once per test binary; callers only read them.
var e2eShapes = sync.OnceValue(func() []layoutShape {
	e, ok := problem.SuiteByName("Flan_1565")
	if !ok {
		panic("no suite matrix Flan_1565")
	}
	flan := e.Build()
	pois := problem.Poisson2D(256, 256)
	if _, err := sparse.Scale(pois); err != nil {
		panic(err)
	}
	var shapes []layoutShape
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		p    int
	}{{"suite256", flan, 256}, {"wide4k", flan, 4096}, {"pointload2k", pois, 2048}, {"direct64", flan, 64}} {
		shapes = append(shapes, layoutShape{c.name, c.a, partition.Partition(c.a, c.p, partition.Options{Seed: 1}), c.p})
	}
	return shapes
})

// TestLayoutMatchesOldLayout: every rank's Rank view of the flat layout
// equals, element for element, what the per-rank build made of it — on a
// grid and on the four benchmark shapes — and NewLayout refuses what the old
// one refused. The messages differ: the old one named a rank pair or a row
// from its exchange plans, NewLayout names an entry without a mirror.
func TestLayoutMatchesOldLayout(t *testing.T) {
	grid := problem.Poisson2D(16, 16)
	shapes := append([]layoutShape{{"Poisson2D/7", grid, partition.Partition(grid, 7, partition.Options{Seed: 1}), 7}}, e2eShapes()...)
	for _, c := range shapes {
		l, err := NewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		old, err := oldNewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range old.Ranks {
			sameRankData(t, c.name, l.Rank(p), want)
		}
	}

	for _, tc := range asymmetricLayouts {
		_, err := NewLayout(tc.a, tc.part, slices.Max(tc.part)+1)
		_, oldErr := oldNewLayout(tc.a, tc.part, slices.Max(tc.part)+1)
		if err == nil || oldErr == nil {
			t.Errorf("%s: NewLayout error %v, the old layout's %v", tc.name, err, oldErr)
		}
	}
}

// sameRankData fails the test at the first field where the view differs
// from the old layout's rank: ints by value, floats by bits.
func sameRankData(t *testing.T, name string, got RankData, want *oldRankData) {
	t.Helper()
	for _, f := range []struct {
		field string
		same  bool
	}{
		{"P", got.P == want.P},
		{"Glob", sameInts(got.Glob, want.Glob)},
		{"LocPtr", sameInts(got.LocPtr, want.LocPtr)},
		{"LocCol", slices.Equal(got.LocCol, want.LocCol)},
		{"LocVal", sameBits(got.LocVal, want.LocVal)},
		{"ExtPtr", sameInts(got.ExtPtr, want.ExtPtr)},
		{"ExtCol", slices.Equal(got.ExtCol, want.ExtCol)},
		{"ExtVal", sameBits(got.ExtVal, want.ExtVal)},
		{"Diag", sameBits(got.Diag, want.Diag)},
		{"NNZ", got.NNZ == want.NNZ},
		{"Nbrs", sameInts(got.Nbrs, want.Nbrs)},
		{"SlotInNbr", slices.Equal(got.SlotInNbr, want.SlotInNbr)},
		{"ExtGlob", sameInts(got.ExtGlob, want.ExtGlob)},
		{"ExtOff", slices.Equal(got.ExtOff, want.ExtOff)},
		{"MyRows", slices.Equal(got.MyRows, want.MyRows)},
		{"MyOff", slices.Equal(got.MyOff, want.MyOff)},
	} {
		if !f.same {
			t.Fatalf("%s rank %d: %s differs from the old layout's", name, want.P, f.field)
		}
	}
}

func sameInts[A, B int | int32](a []A, b []B) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != int(b[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestLayoutRejectsIndexOverflow: the layout's indices are 32 bits, so a
// count that reaches 2³¹ is an error — from the helper, and from NewLayout
// before it allocates anything of that size: no part vector here is that
// long, and with one that long the gate (sparse.CSR.Relaxable) refuses n
// and nnz past 2³¹−1.
func TestLayoutRejectsIndexOverflow(t *testing.T) {
	if err := fitsIndex("n", math.MaxInt32); err != nil {
		t.Errorf("fitsIndex(2³¹−1) = %v, want nil", err)
	}
	if err := fitsIndex("nnz", math.MaxInt32+1); err == nil || err.Error() != "dmem: nnz = 2147483648 does not fit the layout's 32-bit indices" {
		t.Errorf("fitsIndex(2³¹) = %v", err)
	}
	if _, err := NewLayout(&sparse.CSR{N: math.MaxInt32 + 1}, nil, 1); err == nil || err.Error() != "dmem: partition length 0 != n 2147483648" {
		t.Errorf("NewLayout on n = 2³¹: %v", err)
	}
}
