package dmem

import (
	"reflect"
	"testing"

	"southwell/internal/partition"
	"southwell/internal/problem"
)

// TestLayoutDeterministic is the regression test behind the maporder
// analyzer's contract for this package: whatever order NewLayout discovers
// external rows and neighbors in while building per-rank boundary/ghost
// indexing, it must collect then sort, so that repeated constructions from
// identical inputs yield bit-identical layouts. Ten constructions must
// produce deeply equal RankData, including every exchange-plan slice whose
// order feeds message traffic.
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
		for p := range l.Ranks {
			got, want := l.Ranks[p], ref.Ranks[p]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: RankData for rank %d differs from run 0:\n got %+v\nwant %+v",
					run, p, got, want)
			}
		}
	}

	// Row ownership: rank p's Glob is exactly the rows part gives it,
	// ascending, so a row's local index is its position there, and the ranks
	// cover every row once.
	owned := 0
	for p, rd := range ref.Ranks {
		for li, g := range rd.Glob {
			if part[g] != p || li > 0 && rd.Glob[li-1] >= g {
				t.Fatalf("rank %d: Glob is not its rows strictly ascending: %v", p, rd.Glob)
			}
		}
		owned += rd.M()
	}
	if owned != a.N {
		t.Fatalf("the ranks own %d rows, want %d", owned, a.N)
	}

	// The orderings the exchange plans rely on are not just stable but
	// sorted (DESIGN.md layout contract): neighbors ascending; ext slots
	// grouped by owner in neighbor order, global ids ascending within an
	// owner's range, every slot in exactly one range; boundary rows ascending
	// within a neighbor's range.
	for p, rd := range ref.Ranks {
		for j := 1; j < len(rd.Nbrs); j++ {
			if rd.Nbrs[j-1] >= rd.Nbrs[j] {
				t.Errorf("rank %d: Nbrs not strictly ascending: %v", p, rd.Nbrs)
				break
			}
		}
		deg := len(rd.Nbrs)
		if len(rd.ExtOff) != deg+1 || rd.ExtOff[0] != 0 || int(rd.ExtOff[deg]) != len(rd.ExtGlob) {
			t.Fatalf("rank %d: ExtOff %v does not span the %d ext slots of %d neighbors", p, rd.ExtOff, len(rd.ExtGlob), deg)
		}
		if len(rd.MyOff) != deg+1 || rd.MyOff[0] != 0 || int(rd.MyOff[deg]) != len(rd.MyRows) {
			t.Fatalf("rank %d: MyOff %v does not span the %d boundary rows of %d neighbors", p, rd.MyOff, len(rd.MyRows), deg)
		}
		for j, q := range rd.Nbrs {
			// Non-empty ranges that tile [0, len): every slot is in exactly one.
			if rd.ExtOff[j] >= rd.ExtOff[j+1] || rd.MyOff[j] >= rd.MyOff[j+1] {
				t.Errorf("rank %d: neighbor %d has an empty or reversed range: ExtOff %v MyOff %v", p, q, rd.ExtOff, rd.MyOff)
			}
			ext := rd.ExtGlob[rd.ExtOff[j]:rd.ExtOff[j+1]]
			for k, g := range ext {
				if part[g] != q || k > 0 && ext[k-1] >= g {
					t.Errorf("rank %d: ext range of neighbor %d is not its rows strictly ascending: %v", p, q, ext)
					break
				}
			}
			bnd := rd.MyBnd(j)
			for k, li := range bnd {
				if k > 0 && bnd[k-1] >= li {
					t.Errorf("rank %d: MyBnd(%d) not strictly ascending: %v", p, j, bnd)
					break
				}
			}
		}
		for j, q := range rd.Nbrs {
			if got, ok := rd.NbrSlot(q); !ok || got != j {
				t.Errorf("rank %d: NbrSlot(%d) = %d, %v, want %d", p, q, got, ok, j)
			}
			if back := int(ref.Ranks[q].SlotInNbr[rd.SlotInNbr[j]]); back != j {
				t.Errorf("rank %d: neighbor %d files this rank under slot %d, whose SlotInNbr points back at %d, want %d",
					p, q, rd.SlotInNbr[j], back, j)
			}
		}
		if _, ok := rd.NbrSlot(p); ok {
			t.Errorf("rank %d: NbrSlot reports the rank as its own neighbor", p)
		}
	}
}
