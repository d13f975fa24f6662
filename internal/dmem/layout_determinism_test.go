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
		if !reflect.DeepEqual(l.Rows, ref.Rows) || !reflect.DeepEqual(l.Local, ref.Local) {
			t.Fatalf("run %d: row ownership differs from run 0", run)
		}
		for p := range l.Ranks {
			got, want := l.Ranks[p], ref.Ranks[p]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: RankData for rank %d differs from run 0:\n got %+v\nwant %+v",
					run, p, got, want)
			}
		}
	}

	// The orderings the exchange plans rely on are not just stable but
	// sorted: neighbors and ext rows ascending (DESIGN.md layout contract).
	for p, rd := range ref.Ranks {
		for j := 1; j < len(rd.Nbrs); j++ {
			if rd.Nbrs[j-1] >= rd.Nbrs[j] {
				t.Errorf("rank %d: Nbrs not strictly ascending: %v", p, rd.Nbrs)
				break
			}
		}
		for j := 1; j < len(rd.ExtGlob); j++ {
			if rd.ExtGlob[j-1] >= rd.ExtGlob[j] {
				t.Errorf("rank %d: ExtGlob not strictly ascending: %v", p, rd.ExtGlob)
				break
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
