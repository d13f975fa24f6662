// Package partition provides graph partitioning for distributing rows of a
// sparse matrix across processes. It stands in for METIS k-way in the
// paper's pipeline: above 64 rows per part the graph is coarsened once by
// heavy-edge matching, the coarsest graph is split by multilevel recursive
// bisection (BFS region-growing initial bisection, Fiduccia-Mattheyses-style
// boundary refinement), and a greedy k-way boundary refinement runs at every
// level on the way back (Karypis & Kumar, SISC 1998 and JPDC 1998). At or
// below 64 rows per part the recursive bisection partitions the graph
// alone.
package partition

import (
	"fmt"
	"math"

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
	// coarsenTo stops a bisection's coarsening when the graph has at most
	// this many vertices.
	coarsenTo = 96
	// refinePasses is the number of FM passes per level.
	refinePasses = 4
	// kwayMinRows is the number of rows per part at or below which
	// Partition is recursive bisection alone. Between kwayCoarsenTo and
	// this many rows per part one matching, which about halves the graph,
	// already reaches kwayCoarsenTo, and that lone coarse level lost edge
	// cut: at k = 256 it cost 3.6–7.5 % on 7 of the 9 suite matrices in
	// that range, and it changed which of them Block Jacobi brings to 0.1
	// (PERF.md, "Rows per part").
	kwayMinRows = 64
	// kwayCoarsenTo stops Partition's one coarsening of the whole graph when
	// it has at most this many vertices per part.
	kwayCoarsenTo = 32
	// kwayPasses is the number of greedy k-way passes per level.
	kwayPasses = 6
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
		// part i. For k > a.N parts a.N..k-1 necessarily stay empty.
		for i := range part {
			part[i] = i
		}
		return part
	}
	newWorkspace(graphFromCSR(a), part, opts.Seed).multilevel(k)
	return part
}

// multilevel labels every vertex of ws.g with one of k ≥ 2 non-empty parts.
// Above kwayMinRows rows per part it coarsens ws.g once, to at most
// kwayCoarsenTo·k vertices, partitions the coarsest graph by recursive
// bisection, and refines the projection of that partition at every level
// on the way back. A graph it keeps no coarse level of (at most
// kwayMinRows·k vertices, or a first matching that stalls) gets
// partition's recursive bisection, as if multilevel had never run: the
// stalled matching's random draws are given back.
func (ws *workspace) multilevel(k int) {
	g := ws.g
	if g.n <= kwayMinRows*k {
		ws.partition(k)
		return
	}
	cmap, coarse, ok := ws.coarsenFor(g, kwayCoarsenTo*k)
	if !ok {
		ws.rng.Seed(ws.seed + 1)
		ws.partition(k)
		return
	}
	label, other := ws.i32.alloc(g.n), ws.i32.alloc(g.n)
	ws.uncoarsen(g, k, cmap, &coarse, label, other)
	for v, p := range label {
		ws.part[v] = int(p)
	}
}

// coarsenFor contracts one heavy-edge matching of g when g has more than
// limit vertices. ok is false, and nothing is left allocated, when g is
// small enough already or the matching stalled (it kept more than 9/10 of
// the vertices, as on a star); the stalled matching's random draws stay
// spent.
func (ws *workspace) coarsenFor(g *graph, limit int) (cmap []int32, coarse graph, ok bool) {
	if g.n <= limit {
		return nil, graph{}, false
	}
	m := ws.mark()
	cmap, coarse = ws.coarsen(g)
	if coarse.n < g.n*9/10 {
		return cmap, coarse, true
	}
	ws.release(m)
	return nil, graph{}, false
}

// uncoarsen labels the vertices of g with k parts, given coarse, the graph
// cmap contracts g onto: it partitions coarse (coarsening it further, or
// bisecting it if it is the coarsest), projects that partition onto g and
// refines it. other gets each vertex's count of neighbours in other parts,
// refineKWay's bookkeeping.
func (ws *workspace) uncoarsen(g *graph, k int, cmap []int32, coarse *graph, label, other []int32) {
	m := ws.mark()
	clabel, cother := ws.i32.alloc(coarse.n), ws.i32.alloc(coarse.n)
	if ccmap, coarser, ok := ws.coarsenFor(coarse, kwayCoarsenTo*k); ok {
		ws.uncoarsen(coarse, k, ccmap, &coarser, clabel, cother)
	} else {
		ws.bisectAll(coarse, k)
		for v := range clabel {
			clabel[v], cother[v] = int32(ws.part[v]), 1
		}
		ws.refineKWay(coarse, k, clabel, cother)
	}
	project(cmap, clabel, cother, label, other)
	ws.release(m)
	ws.refineKWay(g, k, label, other)
}

// partition labels every vertex of ws.g with one of k ≥ 2 non-empty parts
// by recursive bisection.
func (ws *workspace) partition(k int) {
	ws.bisectAll(ws.g, k)
}

// bisectAll labels every vertex v of g, which is ws.g or a coarse level of
// it, with one of k ≥ 2 non-empty parts in ws.part[v], by recursive
// bisection. On a coarse level ws.part's rows are not labelled yet.
func (ws *workspace) bisectAll(g *graph, k int) {
	ids := ws.i32.alloc(g.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	ws.recursiveBisect(g, ids, k, 0)
	repairEmpty(ws.part[:g.n], k)
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
	m := ws.mark()
	cmap, coarse, projected := ws.coarsenFor(g, coarsenTo)
	if projected {
		cside, cother := ws.i32.alloc(coarse.n), ws.i32.alloc(coarse.n)
		ws.bisect(&coarse, frac, cside, cother)
		project(cmap, cside, cother, side, other)
	}
	ws.release(m)
	if !projected {
		ws.growBisection(g, frac, side)
		for v := range other {
			other[v] = 1
		}
	}
	m = ws.mark()
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
	for v, sv := range side {
		if sv == 0 {
			w0 += int(g.vw[v])
		}
	}
	countOther(g, side, other)

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

// kwayRefine is the k-way refinement's state on one level: a labelling of
// g's vertices with k parts, kept with each part's weight and each vertex's
// count of neighbours in other parts.
type kwayRefine struct {
	g            *graph
	label, other []int32
	w            []int32 // vertex weight in each part
	// lo and hi bound the part weights a move may leave: (1 ∓ imbalance)
	// times the mean.
	lo, hi float64
	// Scratch for the vertex being visited, all zero between visits: the
	// parts its neighbours are in other than its own (parts), and per part
	// the weight and number of the vertex's edges into it (conn, nbrs).
	parts, nbrs []int32
	conn        []float64
	// noGain marks a vertex whose last visit found every neighbouring part
	// below its own in edge weight while its part was at most hi (pass).
	noGain []int32
}

// refineKWay runs up to kwayPasses greedy passes over g's labelling with k
// parts (kwayRefine.pass). other is as in refine: on entry 0 for a vertex
// with no neighbour in another part and any other value for one to be
// counted; on return every count is exact.
func (ws *workspace) refineKWay(g *graph, k int, label, other []int32) {
	m := ws.mark()
	r := ws.newKWayRefine(g, k, label, other)
	for pass := 0; pass < kwayPasses; pass++ {
		if !r.pass() {
			break
		}
	}
	ws.release(m)
}

// newKWayRefine counts the part weights and the marked vertices' other-part
// neighbours, taking its arrays from the workspace stacks.
func (ws *workspace) newKWayRefine(g *graph, k int, label, other []int32) kwayRefine {
	mean := float64(g.totalVW()) / float64(k)
	r := kwayRefine{
		g: g, label: label, other: other,
		w:  ws.i32.alloc(k),
		lo: mean * (1 - imbalance), hi: mean * (1 + imbalance),
		parts: ws.i32.alloc(k), nbrs: ws.i32.alloc(k),
		conn: ws.f64.alloc(k), noGain: ws.i32.alloc(g.n),
	}
	clear(r.w)
	clear(r.nbrs)
	clear(r.conn)
	clear(r.noGain)
	for v, p := range label {
		r.w[p] += g.vw[v]
	}
	countOther(g, label, other)
	return r
}

// countOther sets other[v], wherever it is not 0, to the number of v's
// neighbours labelled other than v.
func countOther(g *graph, label, other []int32) {
	for v, p := range label {
		if other[v] == 0 {
			continue
		}
		n := int32(0)
		nbrs, _ := g.row(int32(v))
		for _, u := range nbrs {
			if label[u] != p {
				n++
			}
		}
		other[v] = n
	}
}

// pass visits the vertices with a neighbour in another part in index order.
// Each may move to the neighbouring part of highest gain (its edge weight
// into that part less its edge weight into its own; ties go to the lower
// part id) among those the move keeps at or below hi, and only if its own
// part stays at or above lo. It moves if the gain is positive, if the gain
// is zero and the destination ends lighter than the source was, or if its
// part is above hi. pass reports whether any vertex moved.
//
// A vertex whose edge weight into every neighbouring part is below its
// edge weight into its own, in a part at most hi, cannot move: every gain
// is negative, and no move takes a part above hi, so its own never gets
// there. It stays so until it or a neighbour moves, so pass marks it in
// noGain, skips it while marked, and clears the marks of a moved vertex's
// neighbours: the moves are the ones an unmarked sweep makes.
func (r *kwayRefine) pass() bool {
	g, label, w := r.g, r.label, r.w
	moved := false
	for v := int32(0); int(v) < g.n; v++ {
		if r.other[v] == 0 || r.noGain[v] != 0 {
			continue
		}
		from, wv := label[v], g.vw[v]
		if float64(w[from]-wv) < r.lo {
			continue
		}
		nbrs, wts := g.row(v)
		inner, np := 0.0, 0
		for e, u := range nbrs {
			q := label[u]
			if q == from {
				inner += wts[e]
				continue
			}
			if r.nbrs[q] == 0 {
				r.parts[np] = q
				np++
			}
			r.conn[q] += wts[e]
			r.nbrs[q]++
		}
		to, best, toNbrs, most := int32(-1), math.Inf(-1), int32(0), math.Inf(-1)
		for _, q := range r.parts[:np] {
			conn, n := r.conn[q], r.nbrs[q]
			r.conn[q], r.nbrs[q] = 0, 0
			most = max(most, conn)
			if float64(w[q]+wv) > r.hi {
				continue
			}
			// A NaN gain (both sums overflowed to +Inf) is never taken.
			if gain := conn - inner; gain > best || gain >= best && q < to {
				to, best, toNbrs = q, gain, n
			}
		}
		over := float64(w[from]) > r.hi
		if most < inner && !over {
			r.noGain[v] = 1
			continue
		}
		if to < 0 || !(best > 0 || best >= 0 && w[to]+wv < w[from] || over) {
			continue
		}
		label[v] = to
		w[from] -= wv
		w[to] += wv
		r.other[v] = int32(len(nbrs)) - toNbrs
		for _, u := range nbrs {
			switch label[u] {
			case from:
				r.other[u]++
			case to:
				r.other[u]--
			}
			r.noGain[u] = 0
		}
		moved = true
	}
	return moved
}

// Stats summarizes partition quality.
type Stats struct {
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
	s := Stats{MinSize: a.N, MaxSize: 0}
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
