package sparse_test

import (
	"fmt"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// checkMirrors fails the test unless mirror pairs every stored entry (i, j)
// of a with its transpose: mirror[k] sits in row j at column i, and pairing
// twice is the identity.
func checkMirrors(t *testing.T, name string, a *sparse.CSR, mirror []int32) {
	t.Helper()
	for i := range int32(a.N) {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			if mk := mirror[k]; mk < a.RowPtr[j] || mk >= a.RowPtr[j+1] || a.Col[mk] != i || mirror[mk] != k {
				t.Fatalf("%s: entry (%d, %d) at %d: mirror %d", name, i, j, k, mk)
			}
		}
	}
}

// TestMirrors: the walk pairs every stored entry with its transpose on
// symmetric patterns, whatever its cursor held, and on a pattern that is not
// symmetric names an entry without a mirror, in each place the walk can
// meet one: ahead of the cursor, past a row's end, beside another entry, or
// left behind by a row already walked.
func TestMirrors(t *testing.T) {
	mats := testMatrices(t)
	for _, name := range []string{"tridiag50k", "fem150"} {
		a := mats[name]
		mirror, cursor := make([]int32, a.NNZ()), make([]int32, a.N+3)
		for i := range cursor {
			cursor[i] = -7
		}
		if err := a.Mirrors(cursor, mirror); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMirrors(t, name, a, mirror)
	}
	if err := mats["random3k"].Mirrors(nil, nil); err == nil {
		t.Error("random3k: an asymmetric pattern accepted")
	}
	a := problem.FEM2D(6, 0.3, 3)
	mirror := make([]int32, a.NNZ())
	if err := a.Mirrors(nil, mirror); err != nil {
		t.Fatal(err)
	}
	checkMirrors(t, "FEM2D(6)", a, mirror)

	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for _, c := range []struct {
		name   string
		rowPtr []int32
		col    []int32
		want   string
	}{
		// (0, 2) has no (2, 0).
		{"above", []int32{0, 2, 3, 4}, []int32{0, 2, 1, 2}, "entry (0, 2) has no mirror (2, 0)"},
		// (2, 0) has no (0, 2): row 0 has no entry left for it.
		{"below", []int32{0, 1, 2, 4}, []int32{0, 1, 0, 2}, "entry (2, 0) has no mirror (0, 2)"},
		// (0, 1) has no (1, 0).
		{"right", []int32{0, 3, 4, 6}, []int32{0, 1, 2, 1, 0, 2}, "entry (0, 1) has no mirror (1, 0)"},
		// (2, 0) has no (0, 2): row 1 finds row 2's cursor stuck on it.
		{"unclaimed", []int32{0, 1, 3, 6}, []int32{0, 1, 2, 0, 1, 2}, "entry (2, 0) has no mirror (0, 2)"},
	} {
		a := &sparse.CSR{N: len(c.rowPtr) - 1, RowPtr: c.rowPtr, Col: c.col, Val: ones(len(c.col))}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: the test matrix itself is malformed: %v", c.name, err)
		}
		want := c.want + ": the matrix is not structurally symmetric"
		if err := a.Mirrors(nil, make([]int32, a.NNZ())); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", c.name, err, want)
		}
	}
}

// FuzzMirrors holds the walk to a transpose built here, on small
// duplicate-free patterns: the upper triangle of a symmetric n×n pattern
// (n = 1 + size%12) is read from bits, one bit per entry in row order, and
// toggle, when nonzero, adds or drops entry toggle−1 (row-major, mod n²), so
// the pattern is symmetric or off by one entry. The walk must refuse
// exactly when the pattern differs from its transpose, a refusal must name
// an entry whose mirror is absent, and an accepted walk's mirrors must pair
// every entry with its transpose. The committed seeds
// (testdata/fuzz/FuzzMirrors) cover a symmetric pattern, an entry added
// above and below the diagonal, one dropped and a toggled diagonal.
func FuzzMirrors(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint8, bits []byte, toggle uint16) {
		n := 1 + int(size)%12
		on := make([]bool, n*n) // on[i*n+j]: (i, j) is stored
		b := 0
		for i := range n {
			for j := i; j < n; j++ {
				if b/8 < len(bits) && bits[b/8]>>(b%8)&1 != 0 {
					on[i*n+j], on[j*n+i] = true, true
				}
				b++
			}
		}
		if toggle != 0 {
			k := (int(toggle) - 1) % (n * n)
			on[k] = !on[k]
		}
		a := &sparse.CSR{N: n, RowPtr: make([]int32, n+1)}
		for i := range n {
			for j := range n {
				if on[i*n+j] {
					a.Col = append(a.Col, int32(j))
					a.Val = append(a.Val, 1)
				}
			}
			a.RowPtr[i+1] = int32(len(a.Col))
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("the fuzzed pattern itself is malformed: %v", err)
		}
		symmetric := true
		for i := range n {
			for j := range n {
				symmetric = symmetric && on[i*n+j] == on[j*n+i]
			}
		}
		mirror := make([]int32, a.NNZ())
		err := a.Mirrors(nil, mirror)
		if (err == nil) != symmetric {
			t.Fatalf("symmetric = %v, walk error %v", symmetric, err)
		}
		if err != nil {
			var i, j int
			if _, serr := fmt.Sscanf(err.Error(), "entry (%d, %d)", &i, &j); serr != nil {
				t.Fatalf("error %q names no entry: %v", err, serr)
			}
			if !on[i*n+j] || on[j*n+i] {
				t.Fatalf("error %q: (%d, %d) stored %v, its mirror stored %v", err, i, j, on[i*n+j], on[j*n+i])
			}
			return
		}
		checkMirrors(t, "fuzzed", a, mirror)
	})
}
