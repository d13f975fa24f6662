package dmem

import (
	"reflect"
	"slices"
	"testing"

	"southwell/internal/partition"
	"southwell/internal/problem"
)

// TestLayoutDeterministic is the regression test behind the maporder
// analyzer's contract for this package: whatever order NewLayout discovers
// external rows and neighbors in while building per-rank boundary/ghost
// indexing, it must collect then sort, so that repeated constructions from
// identical inputs yield bit-identical layouts. Ten constructions must
// produce deeply equal flat arrays, including every exchange-plan array
// whose order feeds message traffic.
func TestLayoutDeterministic(t *testing.T) {
	a := problem.Poisson2D(24, 24)
	part := partition.Partition(a, 7, partition.Options{Seed: 42})

	ref, err := NewLayout(a, part, 7)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 10; run++ {
		l, err := NewLayout(a, part, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(l, ref) {
			t.Fatalf("run %d: layout differs from run 0:\n got %+v\nwant %+v", run, l, ref)
		}
	}

	// Row ownership: rank p's rows are exactly the rows part gives it,
	// ascending, so a row's local index is its position there, and the ranks
	// cover every row once.
	l := ref
	if l.rowOff[0] != 0 || int(l.rowOff[l.P]) != a.N || len(l.glob) != a.N {
		t.Fatalf("rowOff %v does not span the %d rows", l.rowOff, a.N)
	}
	for p := range l.P {
		rows := l.rows(p)
		for li, g := range rows {
			if part[g] != p || li > 0 && rows[li-1] >= g {
				t.Fatalf("rank %d: rows are not its own strictly ascending: %v", p, rows)
			}
		}
	}

	// The four offset tables tile their arrays in rank order, and the
	// per-neighbor ranges start where the rank's own do.
	nNbr := int(l.nbrOff[l.P])
	if len(l.nbrs) != nNbr || len(l.nbrExtOff) != nNbr+1 || len(l.nbrBndOff) != nNbr+1 {
		t.Fatalf("neighbor arrays do not match nbrOff's total %d", nNbr)
	}
	if l.nbrExtOff[nNbr] != l.extOff[l.P] || int(l.bndOff[l.P]) != len(l.myRows) || int(l.nbrBndOff[nNbr]) != len(l.myRows) {
		t.Fatalf("nbrExtOff ends at %d, not extOff's %d, or bndOff/nbrBndOff do not span myRows (%d)",
			l.nbrExtOff[nNbr], l.extOff[l.P], len(l.myRows))
	}
	if int(l.locPtr[a.N]) != len(l.locCol) || int(l.extPtr[a.N]) != len(l.extCol) {
		t.Fatalf("locPtr/extPtr do not span locCol (%d) and extCol (%d)", len(l.locCol), len(l.extCol))
	}
	for p := range l.P {
		n0 := l.nbrOff[p]
		if l.nbrOff[p] > l.nbrOff[p+1] || l.nbrExtOff[n0] != l.extOff[p] || l.nbrBndOff[n0] != l.bndOff[p] {
			t.Errorf("rank %d: neighbor ranges start at ext %d / boundary %d, want %d / %d",
				p, l.nbrExtOff[n0], l.nbrBndOff[n0], l.extOff[p], l.bndOff[p])
		}
	}

	// The orderings the exchange plans rely on are not just stable but
	// sorted (DESIGN.md layout contract): neighbors ascending; every ext slot
	// in exactly one neighbor's range; boundary rows ascending within a
	// neighbor's range. What the ranges hold, from both sides, is
	// TestLayoutExchangePlansMatch's.
	for p := range l.P {
		nbrs := l.neighbors(p)
		for j := 1; j < len(nbrs); j++ {
			if nbrs[j-1] >= nbrs[j] {
				t.Errorf("rank %d: neighbors not strictly ascending: %v", p, nbrs)
				break
			}
		}
		for k := l.nbrOff[p]; k < l.nbrOff[p+1]; k++ {
			q := int(l.nbrs[k])
			// Non-empty ranges that tile the rank's range: every slot is in exactly one.
			if l.nbrExtOff[k] >= l.nbrExtOff[k+1] || l.nbrBndOff[k] >= l.nbrBndOff[k+1] {
				t.Errorf("rank %d: neighbor %d has an empty or reversed range: ext %v boundary %v",
					p, q, l.nbrExtOff[k:k+2], l.nbrBndOff[k:k+2])
			}
			bnd := l.myRows[l.nbrBndOff[k]:l.nbrBndOff[k+1]]
			for i, li := range bnd {
				if i > 0 && bnd[i-1] >= li {
					t.Errorf("rank %d: boundary rows toward neighbor %d not strictly ascending: %v", p, q, bnd)
					break
				}
			}
		}
		if slices.Contains(nbrs, int32(p)) {
			t.Errorf("rank %d is its own neighbor", p)
		}
	}
}
