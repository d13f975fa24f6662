package partition

import (
	"testing"

	"southwell/internal/problem"
)

// samePart reports whether two partitions are identical.
func samePart(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPartitionPartsEqualRows: k == n degenerates to the identity
// partition — every row its own part, all parts non-empty.
func TestPartitionPartsEqualRows(t *testing.T) {
	a := problem.Poisson2D(6, 6)
	part := Partition(a, a.N, Options{Seed: 1})
	if err := validate(part, a.N, a.N); err != nil {
		t.Fatal(err)
	}
	for i, p := range part {
		if p != i {
			t.Fatalf("row %d got part %d, want identity", i, p)
		}
	}
}

// TestPartitionPartsExceedRows: k > n must not panic; the result is the
// deterministic identity assignment with parts n..k-1 empty, which
// validate reports.
func TestPartitionPartsExceedRows(t *testing.T) {
	a := problem.Poisson2D(5, 5)
	k := a.N + 7
	p1 := Partition(a, k, Options{Seed: 3})
	p2 := Partition(a, k, Options{Seed: 9}) // seed-independent degenerate path
	if !samePart(p1, p2) {
		t.Error("k > n partition is not deterministic across seeds")
	}
	for i, p := range p1 {
		if p != i {
			t.Fatalf("row %d got part %d, want identity", i, p)
		}
	}
	if err := validate(p1, a.N, k); err == nil {
		t.Error("validate accepted a partition with necessarily-empty parts")
	}
}

// TestPartitionNearRowCountNonEmpty: part counts just below the row count
// force singleton parts and would strand empties without repair; every
// part must come back non-empty, deterministically.
func TestPartitionNearRowCountNonEmpty(t *testing.T) {
	a := problem.Poisson2D(8, 8) // 64 rows
	for _, k := range []int{50, 60, 63} {
		for seed := int64(0); seed < 4; seed++ {
			part := Partition(a, k, Options{Seed: seed})
			if err := validate(part, a.N, k); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			again := Partition(a, k, Options{Seed: seed})
			if !samePart(part, again) {
				t.Fatalf("k=%d seed=%d: partition not deterministic", k, seed)
			}
		}
	}
}

// TestPartitionP8192OnSuiteMatrices: the paper-scale rank count against
// small suite instances (≈11k-18k rows). Every part must be non-empty and
// the result reproducible — this is the partition the 8192-rank scaling
// study runs on.
func TestPartitionP8192OnSuiteMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("multilevel partition at P=8192 is slow under -short")
	}
	const k = 8192
	for _, name := range []string{"Flan_1565", "audikw_1"} {
		ent, ok := problem.SuiteByName(name)
		if !ok {
			t.Fatalf("suite entry %q missing", name)
		}
		a := ent.Gen()
		if a.N <= k {
			t.Fatalf("%s: suite matrix has %d rows, need > %d for this test", name, a.N, k)
		}
		part := Partition(a, k, Options{Seed: 0})
		if err := validate(part, a.N, k); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		again := Partition(ent.Gen(), k, Options{Seed: 0})
		if !samePart(part, again) {
			t.Errorf("%s: P=8192 partition not deterministic", name)
		}
	}
}
