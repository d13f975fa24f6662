package partition

import "math/rand"

// stack hands out slices of T last in, first out: alloc takes the next n
// elements, release pops back to an earlier mark. Memory comes back dirty.
// It grows by adding chunks, so slices handed out earlier stay valid.
type stack[T any] struct {
	chunks   [][]T
	cur, top int // chunks[:cur] and chunks[cur][:top] are in use
}

type stackMark struct{ cur, top int }

func (s *stack[T]) alloc(n int) []T {
	for s.top+n > len(s.chunks[s.cur]) {
		if s.cur+1 == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, max(n, 2*len(s.chunks[s.cur]))))
		}
		s.cur++
		s.top = 0
	}
	p := s.chunks[s.cur][s.top : s.top+n : s.top+n]
	s.top += n
	return p
}

// trim cuts p, which must be the latest allocation, down to its first n
// elements and hands the rest back.
func (s *stack[T]) trim(p []T, n int) []T {
	s.top -= len(p) - n
	return p[:n:n]
}

func (s *stack[T]) mark() stackMark     { return stackMark{s.cur, s.top} }
func (s *stack[T]) release(m stackMark) { s.cur, s.top = m.cur, m.top }

// workspace is everything one Partition call shares down its recursion. It
// is built by Partition and dropped when Partition returns; nothing in it
// outlives the call or is visible to another one.
type workspace struct {
	g    *graph
	part []int
	seed int64
	rng  *rand.Rand
	// local maps a vertex of the graph induce is reading to its index in
	// the half being built. induce sets it for that half's vertices and
	// reads it for no other, so nothing is valid between calls.
	local []int32
	// Every per-level array (subgraphs, coarse graphs, matchings, side
	// labels, BFS queues) lives on these two stacks; each recursion frame
	// releases what it took.
	i32 stack[int32]
	f64 stack[float64]
}

type workspaceMark struct{ i32, f64 stackMark }

func (ws *workspace) mark() workspaceMark { return workspaceMark{ws.i32.mark(), ws.f64.mark()} }

func (ws *workspace) release(m workspaceMark) {
	ws.i32.release(m.i32)
	ws.f64.release(m.f64)
}

// newWorkspace seeds the matching-order stream from seed+1, which keeps it
// distinct from other consumers of the same seed in a run.
func newWorkspace(g *graph, part []int, seed int64) *workspace {
	ws := &workspace{g: g, part: part, seed: seed, rng: rand.New(rand.NewSource(seed + 1)), local: make([]int32, g.n)}
	// Both of multilevel's paths fit these first chunks on mesh-like
	// graphs, whose coarsening halves the graph per level. Recursive
	// bisection of g itself keeps a hierarchy that sums to about g again,
	// plus the first level's edge bound while it is built. The coarsen-once
	// path keeps its own hierarchy of g (matchings, maps and coarse graphs:
	// about 8n indices and g's edges once more over all levels), two labels
	// per vertex per level (about 4n), and under them the recursion on a
	// coarsest graph of under half of g's vertices. A second chunk is taken
	// only by graphs that coarsen slowly.
	e := len(g.adj)
	ws.i32.chunks = [][]int32{make([]int32, 2*e+16*g.n)}
	ws.f64.chunks = [][]float64{make([]float64, 2*e)}
	return ws
}
