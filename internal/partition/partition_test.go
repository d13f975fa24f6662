package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"southwell/internal/problem"
)

// TestGrid2DPartition pins Quality on a partition whose cut is known by
// hand: an 8x8 grid in four 4x4 quadrants.
func TestGrid2DPartition(t *testing.T) {
	part := make([]int, 64)
	for i := range part {
		part[i] = (i/8)/4*2 + (i%8)/4
	}
	if err := validate(part, 64, 4); err != nil {
		t.Fatal(err)
	}
	a := problem.Poisson2D(8, 8)
	st := Quality(a, part, 4)
	if st.MaxSize != 16 || st.MinSize != 16 {
		t.Errorf("grid partition sizes %d..%d, want exactly 16", st.MinSize, st.MaxSize)
	}
	// 2x2 on 8x8 grid: cut = 2*8 edges.
	if st.CutEdges != 16 {
		t.Errorf("cut edges = %d, want 16", st.CutEdges)
	}
}

func TestMultilevelOnGrid(t *testing.T) {
	a := problem.Poisson2D(30, 30)
	for _, k := range []int{2, 4, 7, 16} {
		part := Partition(a, k, Options{Seed: 1})
		if err := validate(part, a.N, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		st := Quality(a, part, k)
		if st.Imbalance > 0.35 {
			t.Errorf("k=%d: imbalance %.2f too high", k, st.Imbalance)
		}
		// A sane bisection of a 30x30 grid should cut far fewer than the
		// ~1740 total edges.
		if k == 2 && st.CutEdges > 200 {
			t.Errorf("k=2: cut %d edges, want < 200", st.CutEdges)
		}
	}
}

func TestMultilevelBeatsNaiveCutOnGrid(t *testing.T) {
	// Multilevel should cut no more than ~2x the ideal strip cut; the block
	// partition of a row-major grid is already strips, so compare against a
	// deliberately bad random partition instead.
	a := problem.Poisson2D(24, 24)
	k := 8
	part := Partition(a, k, Options{Seed: 2})
	st := Quality(a, part, k)
	bad := make([]int, a.N)
	for i := range bad {
		bad[i] = i % k
	}
	stBad := Quality(a, bad, k)
	if st.EdgeCut >= stBad.EdgeCut {
		t.Errorf("multilevel cut %.0f not better than round-robin cut %.0f", st.EdgeCut, stBad.EdgeCut)
	}
}

func TestPartitionK1(t *testing.T) {
	a := problem.Poisson2D(5, 5)
	part := Partition(a, 1, Options{})
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must be all zeros")
		}
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	a := problem.FEM2D(15, 0.3, 2)
	p1 := Partition(a, 6, Options{Seed: 9})
	p2 := Partition(a, 6, Options{Seed: 9})
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("partition not deterministic")
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	if err := validate([]int{0, 1}, 3, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := validate([]int{0, 5, 1}, 3, 2); err == nil {
		t.Error("out-of-range part accepted")
	}
	if err := validate([]int{0, 0, 0}, 3, 2); err == nil {
		t.Error("empty part accepted")
	}
}

func TestQuickPartitionAlwaysValidBalanced(t *testing.T) {
	f := func(seed int64) bool {
		k := 2 + int(seed%7+7)%7
		a := problem.FEM2D(12, 0.25, seed)
		part := Partition(a, k, Options{Seed: seed})
		if validate(part, a.N, k) != nil {
			return false
		}
		st := Quality(a, part, k)
		return st.Imbalance < 0.6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// validate checks that part assigns every row a part id in [0, k) and that
// every part is non-empty; it returns an error describing the first
// violation.
func validate(part []int, n, k int) error {
	if len(part) != n {
		return fmt.Errorf("partition: length %d, want %d", len(part), n)
	}
	seen := make([]bool, k)
	for i, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("partition: row %d has part %d, want [0,%d)", i, p, k)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}
