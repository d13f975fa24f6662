// Package partition provides graph partitioning for distributing rows of a
// sparse matrix across processes. It stands in for METIS in the paper's
// pipeline: a multilevel recursive-bisection partitioner with heavy-edge
// matching coarsening, BFS region-growing initial bisection, and
// Fiduccia-Mattheyses-style boundary refinement. Simple block and grid
// partitioners are also provided for structured problems and tests.
package partition

import (
	"fmt"

	"southwell/internal/sparse"
)

// graph is an edge-weighted, vertex-weighted undirected graph in adjacency
// (CSR) form, the working representation inside the multilevel scheme.
// Indices are int32: the matching and contraction loops are bound by index
// traffic, and the matrix they are copied from stores int32 indices too.
type graph struct {
	n    int
	xadj []int32
	adj  []int32
	ew   []float64
	vw   []int32
}

// graphFromCSR copies the off-diagonal pattern of a and the magnitudes of
// its entries. The matrix's indices are int32 already (sparse.MaxIndex), so
// the graph's fit without a check of their own.
func graphFromCSR(a *sparse.CSR) *graph {
	g := &graph{
		n:    a.N,
		xadj: make([]int32, a.N+1),
		vw:   make([]int32, a.N),
		// Pre-size from the matrix: off-diagonal count is nnz minus the
		// (at most n) diagonal entries, so nnz is a tight upper bound.
		adj: make([]int32, 0, a.NNZ()),
		ew:  make([]float64, 0, a.NNZ()),
	}
	for i := 0; i < a.N; i++ {
		g.vw[i] = 1
		cols, vals := a.Row(i)
		for k, j := range cols {
			if int(j) == i {
				continue
			}
			g.adj = append(g.adj, j)
			w := vals[k]
			if w < 0 {
				w = -w
			}
			g.ew = append(g.ew, w)
		}
		g.xadj[i+1] = int32(len(g.adj))
	}
	return g
}

// row returns the neighbours of v and the weights of the edges to them.
func (g *graph) row(v int32) ([]int32, []float64) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	nbrs := g.adj[lo:hi]
	return nbrs, g.ew[lo:hi][:len(nbrs)]
}

func (g *graph) totalVW() int {
	t := 0
	for _, w := range g.vw {
		t += int(w)
	}
	return t
}

// Options tunes the multilevel partitioner.
type Options struct {
	// Seed drives the randomized matching order.
	Seed int64
}

// The partitioner's fixed parameters (METIS-like).
const (
	// imbalance is the allowed relative deviation of a part from its target
	// weight during refinement.
	imbalance = 0.03
	// coarsenTo stops coarsening when the graph has at most this many
	// vertices.
	coarsenTo = 96
	// refinePasses is the number of FM passes per level.
	refinePasses = 4
)

// Partition splits the adjacency graph of a into k parts, returning the
// part id of each row. It panics if k <= 0 and returns the trivial
// partition for k == 1. Parts are balanced within imbalance and the
// weighted edge cut is heuristically minimized.
func Partition(a *sparse.CSR, k int, opts Options) []int {
	if k <= 0 {
		panic(fmt.Sprintf("partition: k = %d", k))
	}
	part := make([]int, a.N)
	if k == 1 {
		return part
	}
	if k >= a.N {
		// At least as many parts as rows: the multilevel scheme cannot give
		// every part a vertex, and its recursion would strand arbitrary
		// parts empty. Deterministic degenerate answer instead: row i →
		// part i. For k > a.N parts a.N..k-1 necessarily stay empty;
		// Validate reports them to callers that require k non-empty parts.
		for i := range part {
			part[i] = i
		}
		return part
	}
	newWorkspace(graphFromCSR(a), part, opts.Seed).partition(k)
	return part
}

// partition labels every vertex of ws.g with one of k ≥ 2 non-empty parts.
func (ws *workspace) partition(k int) {
	ids := ws.i32.alloc(ws.g.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	ws.recursiveBisect(ws.g, ids, k, 0)
	repairEmpty(ws.part, k)
}

// repairEmpty reassigns rows so that no part in [0, k) is empty. At high
// part counts (parts approaching rows) recursive bisection can hand a
// subset fewer vertices than its part budget and strand parts without any
// row; the layout layer rejects such partitions outright. Repair is
// deterministic: empty parts are filled in ascending id order, each taking
// the highest-index row of the currently largest part that still has more
// than one row (ties broken toward the lowest donor id). A no-op on
// partitions with no empty parts, so moderate-k results are unchanged.
func repairEmpty(part []int, k int) {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	var empties []int
	for p, sz := range sizes {
		if sz == 0 {
			empties = append(empties, p)
		}
	}
	if len(empties) == 0 {
		return
	}
	// Rows of each part in ascending index order; the donor pops its tail.
	rows := make([][]int, k)
	for i, p := range part {
		rows[p] = append(rows[p], i)
	}
	for _, e := range empties {
		donor, best := -1, 1
		for p, sz := range sizes {
			if sz > best {
				donor, best = p, sz
			}
		}
		if donor < 0 {
			return // fewer rows than parts: not repairable (k >= n is handled above)
		}
		r := rows[donor][len(rows[donor])-1]
		rows[donor] = rows[donor][:len(rows[donor])-1]
		sizes[donor]--
		part[r] = e
		sizes[e] = 1
		rows[e] = append(rows[e], r)
	}
}

// recursiveBisect partitions g, whose vertex i is vertex ids[i] of ws.g,
// into k ≥ 2 parts labeled base..base+k-1.
func (ws *workspace) recursiveBisect(g *graph, ids []int32, k, base int) {
	kl := k / 2
	m := ws.mark()
	side := ws.i32.alloc(g.n)
	ws.bisect(g, float64(kl)/float64(k), side, ws.i32.alloc(g.n))
	ws.half(g, ids, side, 0, kl, base)
	ws.half(g, ids, side, 1, k-kl, base+kl)
	ws.release(m)
}

// half hands the vertices of g on side s to the k parts from base on: it
// labels them if k is 1 and partitions the subgraph they induce otherwise.
func (ws *workspace) half(g *graph, ids, side []int32, s int32, k, base int) {
	if k == 1 {
		for i, v := range ids {
			if side[i] == s {
				ws.part[v] = base
			}
		}
		return
	}
	m := ws.mark()
	sub, subIDs := ws.induce(g, ids, side, s)
	ws.recursiveBisect(&sub, subIDs, k, base)
	ws.release(m)
}

// induce extracts the subgraph of g on its side-s vertices and their ids:
// the vertices keep their order, each row keeps the entries that stay on the
// side in their order, and edges leaving the side are dropped.
func (ws *workspace) induce(g *graph, ids, side []int32, s int32) (graph, []int32) {
	local := ws.local
	n, bound := int32(0), 0
	for i, si := range side {
		if si == s {
			local[i] = n
			n++
			bound += int(g.xadj[i+1] - g.xadj[i])
		}
	}
	sub := graph{n: int(n), xadj: ws.i32.alloc(int(n) + 1), vw: ws.i32.alloc(int(n))}
	subIDs := ws.i32.alloc(int(n))
	adj, ew := ws.i32.alloc(bound), ws.f64.alloc(bound)
	ne := int32(0)
	sub.xadj[0] = 0
	for i, si := range side {
		if si != s {
			continue
		}
		j := local[i]
		subIDs[j], sub.vw[j] = ids[i], g.vw[i]
		nbrs, wts := g.row(int32(i))
		for e, u := range nbrs {
			if side[u] == s {
				adj[ne], ew[ne] = local[u], wts[e]
				ne++
			}
		}
		sub.xadj[j+1] = ne
	}
	sub.adj, sub.ew = ws.i32.trim(adj, int(ne)), ws.f64.trim(ew, int(ne))
	return sub, subIDs
}

// bisect fills side with a 0/1 label per vertex of g, side 0 receiving
// ~frac of the total vertex weight, via multilevel coarsening, and other
// with each vertex's count of neighbours on the other side (refine's
// bookkeeping, handed to the next finer level).
func (ws *workspace) bisect(g *graph, frac float64, side, other []int32) {
	projected := false
	if g.n > coarsenTo {
		m := ws.mark()
		cmap, coarse := ws.coarsen(g)
		// Unless matching stalled (e.g. star graphs): then coarsening stops here.
		if coarse.n < g.n*9/10 {
			cside, cother := ws.i32.alloc(coarse.n), ws.i32.alloc(coarse.n)
			ws.bisect(&coarse, frac, cside, cother)
			project(cmap, cside, cother, side, other)
			projected = true
		}
		ws.release(m)
	}
	if !projected {
		ws.growBisection(g, frac, side)
		for v := range other {
			other[v] = 1
		}
	}
	m := ws.mark()
	refine(g, side, other, ws.i32.alloc(g.n), frac)
	ws.release(m)
}

// project hands a coarse bisection down to the fine vertices cmap maps onto
// it. A coarse vertex with no neighbour on the other side has fine vertices
// with none either (each fine edge between two coarse vertices is part of a
// coarse edge), so their counts are 0 and refine counts only the rest.
func project(cmap, cside, cother, side, other []int32) {
	for v, c := range cmap {
		side[v], other[v] = cside[c], cother[c]
	}
}

// perm is ws.rng.Perm(n) written into workspace memory: the same draws in
// the same order, so the stream is left exactly where Perm leaves it.
// (math/rand documents that Perm's draw sequence cannot change in Go 1.)
func (ws *workspace) perm(n int) []int32 {
	p := ws.i32.alloc(n)
	for i := range p {
		j := ws.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	return p
}

// coarsen contracts a heavy-edge matching, returning the vertex map and the
// coarse graph.
func (ws *workspace) coarsen(g *graph) ([]int32, graph) {
	cmap := ws.i32.alloc(g.n)
	match := ws.i32.alloc(g.n)
	for i := range match {
		match[i] = -1
	}
	// first[c] is the lower-numbered fine vertex of coarse vertex c; the
	// other one, if c is a matched pair, is match[first[c]].
	first := ws.i32.alloc(g.n)
	m := ws.mark()
	nc := int32(0)
	for _, v := range ws.perm(g.n) {
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := -1.0
		nbrs, wts := g.row(v)
		for e, u := range nbrs {
			// The weight test first: it reads the row, match[u] is a
			// random load.
			if wts[e] > bestW && u != v && match[u] < 0 {
				bestW = wts[e]
				best = u
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v], cmap[best] = nc, nc
			first[nc] = min(v, best)
		} else {
			match[v] = v
			cmap[v] = nc
			first[nc] = v
		}
		nc++
	}
	ws.release(m)
	first = ws.i32.trim(first, int(nc))

	// Coarse row c merges the rows of c's fine vertices in ascending vertex
	// order, a coarse neighbour entering the row where it is first met.
	// at[cu] is cu's slot in the row being built: slots of finished rows lie
	// below the current row's start, so one comparison tells them apart.
	coarse := graph{n: int(nc), xadj: ws.i32.alloc(int(nc) + 1), vw: ws.i32.alloc(int(nc))}
	at := ws.i32.alloc(int(nc))
	for i := range at {
		at[i] = -1
	}
	adj, ew := ws.i32.alloc(len(g.adj)), ws.f64.alloc(len(g.adj))
	ne := int32(0)
	coarse.xadj[0] = 0
	for c := int32(0); c < nc; c++ {
		row := ne
		v := first[c]
		coarse.vw[c] = g.vw[v]
		for {
			nbrs, wts := g.row(v)
			for e, u := range nbrs {
				cu := cmap[u]
				if cu == c {
					continue
				}
				p := at[cu]
				if p < row {
					p = ne
					ne++
					at[cu], adj[p], ew[p] = p, cu, 0
				}
				ew[p] += wts[e]
			}
			if match[v] <= v {
				break // v was unmatched, or is the higher vertex of its pair
			}
			v = match[v]
			coarse.vw[c] += g.vw[v]
		}
		coarse.xadj[c+1] = ne
	}
	coarse.adj, coarse.ew = ws.i32.trim(adj, int(ne)), ws.f64.trim(ew, int(ne))
	return cmap, coarse
}

// growBisection grows side 0 by BFS from a pseudo-peripheral vertex until
// it holds ~frac of the vertex weight.
func (ws *workspace) growBisection(g *graph, frac float64, side []int32) {
	for i := range side {
		side[i] = 1
	}
	if g.n == 0 {
		return
	}
	target := int(frac * float64(g.totalVW()))
	if target <= 0 {
		target = 1
	}
	m := ws.mark()
	queue := ws.i32.alloc(g.n)
	seen := ws.i32.alloc(g.n) // number of the last sweep that reached the vertex
	clear(seen)
	start := pseudoPeripheral(g, int32(ws.rng.Intn(g.n)), queue, seen)
	const sweep = 3 // pseudoPeripheral used 1 and 2
	queue[0] = start
	seen[start] = sweep
	head, tail := 0, 1
	grown := 0
	for head < tail && grown < target {
		v := queue[head]
		head++
		side[v] = 0
		grown += int(g.vw[v])
		nbrs, _ := g.row(v)
		for _, u := range nbrs {
			if seen[u] != sweep {
				seen[u] = sweep
				queue[tail] = u
				tail++
			}
		}
	}
	// Disconnected graphs: if BFS exhausted before reaching the target,
	// sweep remaining vertices in index order.
	for v := 0; v < g.n && grown < target; v++ {
		if side[v] == 1 {
			side[v] = 0
			grown += int(g.vw[v])
		}
	}
	ws.release(m)
}

// pseudoPeripheral runs two BFS sweeps to find a far-apart start vertex:
// the last vertex the second sweep reaches, started from the last one the
// first reaches. queue and seen have g.n entries, seen all zero.
func pseudoPeripheral(g *graph, far int32, queue, seen []int32) int32 {
	for sweep := int32(1); sweep <= 2; sweep++ {
		queue[0] = far
		seen[far] = sweep
		for head, tail := 0, 1; head < tail; head++ {
			far = queue[head]
			nbrs, _ := g.row(far)
			for _, u := range nbrs {
				if seen[u] != sweep {
					seen[u] = sweep
					queue[tail] = u
					tail++
				}
			}
		}
	}
	return far
}

// refine performs FM-style passes: repeatedly move the boundary vertex with
// the best cut gain to the other side, subject to the balance constraint,
// keeping the best configuration seen in each pass.
//
// other[v] counts v's neighbours on the other side, so v is on the boundary
// iff it is positive; a move updates it for v and its neighbours, which
// assumes g undirected (every entry u of v's row matched by an entry v of
// u's). On entry other[v] == 0 says v has no such neighbour and any other
// value that it is to be counted; on return every count is exact.
//
// A sweep re-evaluates only what changed. noGain (g.n entries, contents on
// entry ignored) marks v when gain(v) was last found ≤ 0 or NaN; a move of v
// clears its neighbours' marks, so a marked v still has that gain and is
// skipped. The balance test, cheaper and likewise pure, runs before the
// gain: neither shortcut changes which vertices move.
func refine(g *graph, side, other, noGain []int32, frac float64) {
	clear(noGain)
	total := g.totalVW()
	target0 := float64(total) * frac
	lo := int(target0 * (1 - imbalance))
	hi := int(target0*(1+imbalance)) + 1

	w0 := 0
	for v := int32(0); int(v) < g.n; v++ {
		sv := side[v]
		if sv == 0 {
			w0 += int(g.vw[v])
		}
		if other[v] != 0 {
			n := int32(0)
			nbrs, _ := g.row(v)
			for _, u := range nbrs {
				if side[u] != sv {
					n++
				}
			}
			other[v] = n
		}
	}

	gain := func(v int32) float64 {
		ext, inn := 0.0, 0.0
		nbrs, wts := g.row(v)
		for e, u := range nbrs {
			if side[u] == side[v] {
				inn += wts[e]
			} else {
				ext += wts[e]
			}
		}
		return ext - inn
	}

	for pass := 0; pass < refinePasses; pass++ {
		moved := false
		// One greedy sweep over boundary vertices.
		for v := int32(0); int(v) < g.n; v++ {
			if other[v] == 0 || noGain[v] != 0 {
				continue
			}
			// Balance check for moving v to the other side.
			nw0 := w0
			if side[v] == 0 {
				nw0 -= int(g.vw[v])
			} else {
				nw0 += int(g.vw[v])
			}
			if nw0 < lo || nw0 > hi {
				continue
			}
			// A NaN gain (both sums overflowed to +Inf) is no gain.
			if gv := gain(v); !(gv > 0) {
				noGain[v] = 1
				continue
			}
			sv := 1 - side[v]
			side[v] = sv
			nbrs, _ := g.row(v)
			other[v] = int32(len(nbrs)) - other[v]
			for _, u := range nbrs {
				if side[u] == sv {
					other[u]--
				} else {
					other[u]++
				}
				noGain[u] = 0
			}
			w0 = nw0
			moved = true
		}
		if !moved {
			break
		}
	}
}

// Block returns the contiguous block partition: rows split into k nearly
// equal ranges in natural order (the paper's δ offsets for structured
// cases and a baseline for the multilevel partitioner).
func Block(n, k int) []int {
	part := make([]int, n)
	for i := 0; i < n; i++ {
		part[i] = i * k / n
		if part[i] >= k {
			part[i] = k - 1
		}
	}
	return part
}

// Stats summarizes partition quality.
type Stats struct {
	K         int
	MinSize   int
	MaxSize   int
	AvgSize   float64
	EdgeCut   float64 // sum of |a_ij| over cut edges (each edge once)
	CutEdges  int
	Imbalance float64 // MaxSize / AvgSize - 1
}

// Quality computes balance and weighted edge-cut statistics of part.
func Quality(a *sparse.CSR, part []int, k int) Stats {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	s := Stats{K: k, MinSize: a.N, MaxSize: 0}
	for _, sz := range sizes {
		if sz < s.MinSize {
			s.MinSize = sz
		}
		if sz > s.MaxSize {
			s.MaxSize = sz
		}
	}
	s.AvgSize = float64(a.N) / float64(k)
	s.Imbalance = float64(s.MaxSize)/s.AvgSize - 1
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for kk, j := range cols {
			if int(j) > i && part[j] != part[i] {
				s.CutEdges++
				w := vals[kk]
				if w < 0 {
					w = -w
				}
				s.EdgeCut += w
			}
		}
	}
	return s
}

// Validate checks that part assigns every row a part id in [0, k) and that
// every part is non-empty; it returns an error describing the first
// violation.
func Validate(part []int, n, k int) error {
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
