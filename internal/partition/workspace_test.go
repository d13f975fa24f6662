package partition

import "testing"

// TestStackGrowsWithoutMoving: an allocation that does not fit the current
// chunk opens a new one and leaves every earlier slice where it was;
// release returns to the earlier chunk and the space is handed out again.
func TestStackGrowsWithoutMoving(t *testing.T) {
	s := stack[int32]{chunks: [][]int32{make([]int32, 8)}}
	a := s.alloc(6)
	for i := range a {
		a[i] = int32(i)
	}
	m := s.mark()
	b := s.alloc(5) // does not fit the 2 left: second chunk
	c := s.alloc(40)
	if len(b) != 5 || len(c) != 40 || len(s.chunks) < 2 {
		t.Fatalf("alloc past the first chunk: len %d, %d, %d chunks", len(b), len(c), len(s.chunks))
	}
	for i := range c {
		c[i] = -1
	}
	for i := range b {
		b[i] = -2
	}
	for i, v := range a {
		if v != int32(i) {
			t.Fatalf("earlier allocation overwritten at %d: %d", i, v)
		}
	}
	s.release(m)
	chunks := len(s.chunks)
	d := s.alloc(2)
	if &d[0] != &s.chunks[0][6] {
		t.Error("after release the first chunk's free tail is not reused")
	}
	s.release(m)
	s.alloc(5)
	s.alloc(40)
	if len(s.chunks) != chunks {
		t.Errorf("re-running the same allocations took %d chunks, had %d", len(s.chunks), chunks)
	}
}

// TestStackTrim: trimming the latest allocation hands its tail to the next.
func TestStackTrim(t *testing.T) {
	s := stack[float64]{chunks: [][]float64{make([]float64, 16)}}
	s.alloc(3)
	p := s.trim(s.alloc(10), 4)
	if len(p) != 4 || cap(p) != 4 {
		t.Fatalf("trimmed slice has len %d cap %d, want 4 4", len(p), cap(p))
	}
	if q := s.alloc(9); &q[0] != &s.chunks[0][7] {
		t.Error("allocation after trim does not start where the trimmed one ends")
	}
}

// TestPartitionSameFromTinyWorkspace: a workspace that starts far too small
// and has to add chunks all the way down the coarsening and the recursion
// labels the rows exactly as the pre-sized one does.
func TestPartitionSameFromTinyWorkspace(t *testing.T) {
	a := twoGrids()
	const k = 6
	want := Partition(a, k, Options{Seed: 1})

	part := make([]int, a.N)
	ws := newWorkspace(graphFromCSR(a), part, 1)
	ws.i32.chunks = [][]int32{make([]int32, 1)}
	ws.f64.chunks = [][]float64{make([]float64, 1)}
	ws.multilevel(k)
	if !samePart(part, want) {
		t.Error("partition from a one-element workspace differs from the pre-sized one")
	}
	if len(ws.i32.chunks) < 2 || len(ws.f64.chunks) < 2 {
		t.Errorf("workspace never grew: %d and %d chunks", len(ws.i32.chunks), len(ws.f64.chunks))
	}
}
