package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"southwell/internal/problem"
)

// The refinement and the recursion as they were before refine kept counts
// and induce read the parent subgraph, kept verbatim (names prefixed "old")
// as the oracles the current code must equal bit for bit.

// oldWorkspace runs the old recursion over a workspace. The old induce
// kept its own global→local index, all −1 between calls; this field shadows
// the workspace's, whose contract changed. oldRecursiveBisect's one edit is
// the scratch count array the current bisect takes.
type oldWorkspace struct {
	*workspace
	local []int32
}

func newOldWorkspace(ws *workspace) *oldWorkspace {
	old := &oldWorkspace{workspace: ws, local: make([]int32, ws.g.n)}
	for i := range old.local {
		old.local[i] = -1
	}
	return old
}

// oldPartition is the old workspace.partition.
func (ws *oldWorkspace) oldPartition(k int) {
	verts := make([]int32, ws.g.n)
	for i := range verts {
		verts[i] = int32(i)
	}
	ws.oldRecursiveBisect(verts, k, 0)
	repairEmpty(ws.part, k)
}

// oldRecursiveBisect partitions the subgraph induced by verts into k parts
// labeled base..base+k-1. It reorders verts in place, side-0 vertices
// first, each side keeping its relative order.
func (ws *oldWorkspace) oldRecursiveBisect(verts []int32, k, base int) {
	if k == 1 {
		for _, v := range verts {
			ws.part[v] = base
		}
		return
	}
	kl := k / 2
	m := ws.mark()
	sub := ws.oldInduce(verts)
	side := ws.i32.alloc(sub.n)
	ws.bisect(&sub, float64(kl)/float64(k), side, ws.i32.alloc(sub.n))
	right := ws.i32.alloc(len(verts))[:0]
	nl := 0
	for i, v := range verts {
		if side[i] == 0 {
			verts[nl] = v
			nl++
		} else {
			right = append(right, v)
		}
	}
	copy(verts[nl:], right)
	ws.release(m)
	ws.oldRecursiveBisect(verts[:nl], kl, base)
	ws.oldRecursiveBisect(verts[nl:], k-kl, base+kl)
}

// oldInduce extracts the subgraph of ws.g on verts (vertex i of the result is
// verts[i]); edges leaving the set are dropped.
func (ws *oldWorkspace) oldInduce(verts []int32) graph {
	g := ws.g
	bound := 0
	for i, v := range verts {
		ws.local[v] = int32(i)
		bound += int(g.xadj[v+1] - g.xadj[v])
	}
	s := graph{n: len(verts), xadj: ws.i32.alloc(len(verts) + 1), vw: ws.i32.alloc(len(verts))}
	adj, ew := ws.i32.alloc(bound), ws.f64.alloc(bound)
	ne := 0
	s.xadj[0] = 0
	for i, v := range verts {
		s.vw[i] = g.vw[v]
		nbrs, wts := g.row(v)
		for e, u := range nbrs {
			if j := ws.local[u]; j >= 0 {
				adj[ne], ew[ne] = j, wts[e]
				ne++
			}
		}
		s.xadj[i+1] = int32(ne)
	}
	for _, v := range verts {
		ws.local[v] = -1
	}
	s.adj, s.ew = ws.i32.trim(adj, ne), ws.f64.trim(ew, ne)
	return s
}

// oldRefine performs FM-style passes: repeatedly move the boundary vertex with
// the best cut gain to the other side, subject to the balance constraint,
// keeping the best configuration seen in each pass.
func oldRefine(g *graph, side []int32, frac float64) {
	total := g.totalVW()
	target0 := float64(total) * frac
	lo := int(target0 * (1 - imbalance))
	hi := int(target0*(1+imbalance)) + 1

	w0 := 0
	for v := 0; v < g.n; v++ {
		if side[v] == 0 {
			w0 += int(g.vw[v])
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
			onBoundary := false
			nbrs, _ := g.row(v)
			for _, u := range nbrs {
				if side[u] != side[v] {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				continue
			}
			gv := gain(v)
			if gv <= 0 {
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
			side[v] = 1 - side[v]
			w0 = nw0
			moved = true
		}
		if !moved {
			break
		}
	}
}

// edge is one entry of a row under construction: neighbour and weight.
type edge struct {
	u int32
	w float64
}

// graphOf builds a graph from its rows, every vertex of weight vw[i].
func graphOf(rows [][]edge, vw []int32) *graph {
	g := &graph{n: len(rows), xadj: make([]int32, len(rows)+1), vw: vw}
	for i, r := range rows {
		for _, e := range r {
			g.adj = append(g.adj, e.u)
			g.ew = append(g.ew, e.w)
		}
		g.xadj[i+1] = int32(len(g.adj))
	}
	return g
}

// randomGraph is an undirected graph on n vertices in comps components
// (an edge joins only vertices equal mod comps), every seventh vertex
// isolated, about a quarter of the edges entered twice in both rows,
// weights that include 0 and −0, vertex weights 1–3, and each row in random
// entry order.
func randomGraph(rng *rand.Rand, n, comps int) *graph {
	weights := []float64{0, math.Copysign(0, -1), 1, 0.5, 2.25, 1e-3}
	rows := make([][]edge, n)
	for range 3 * n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || u%comps != v%comps || u%7 == 6 || v%7 == 6 {
			continue
		}
		w := rng.Float64()
		if rng.Intn(2) == 0 {
			w = weights[rng.Intn(len(weights))]
		}
		for range 1 + rng.Intn(4)/3 {
			rows[u] = append(rows[u], edge{int32(v), w})
			rows[v] = append(rows[v], edge{int32(u), w})
		}
	}
	vw := make([]int32, n)
	for i, r := range rows {
		rng.Shuffle(len(r), func(a, b int) { r[a], r[b] = r[b], r[a] })
		vw[i] = int32(1 + rng.Intn(3))
	}
	return graphOf(rows, vw)
}

// balancedSides puts the vertices of g, in random order, on side 0 until
// side 0 holds about frac of the vertex weight: a start inside refine's
// balance window, where moves are allowed.
func balancedSides(rng *rand.Rand, g *graph, frac float64) []int32 {
	side := make([]int32, g.n)
	target, w0 := frac*float64(g.totalVW()), 0
	for _, v := range rng.Perm(g.n) {
		if float64(w0+int(g.vw[v])) <= target {
			side[v] = 0
			w0 += int(g.vw[v])
		} else {
			side[v] = 1
		}
	}
	return side
}

func ones(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// checkRefine runs refine from (side, other) and the old refine from side,
// fails the test if the side vectors differ or a count is not what a
// recount gives, and returns how many vertices changed side.
func checkRefine(t *testing.T, name string, g *graph, side, other []int32, frac float64) int {
	t.Helper()
	start, want := slices.Clone(side), slices.Clone(side)
	oldRefine(g, want, frac)
	refine(g, side, other, make([]int32, g.n), frac)
	if !slices.Equal(side, want) {
		t.Fatalf("%s: refine's sides differ from the old refine's", name)
	}
	for v := int32(0); int(v) < g.n; v++ {
		n := int32(0)
		nbrs, _ := g.row(v)
		for _, u := range nbrs {
			if side[u] != side[v] {
				n++
			}
		}
		if other[v] != n {
			t.Fatalf("%s: vertex %d has %d neighbours on the other side, its count says %d", name, v, n, other[v])
		}
	}
	moved := 0
	for v := range side {
		if side[v] != start[v] {
			moved++
		}
	}
	return moved
}

// TestRefineMatchesReference: refine moves exactly the vertices the old
// refine moved, from counts taken from scratch (all-ones start) and from
// counts projected off a refined coarse level, and leaves every count
// exact — on a star, two disconnected grids, a grid with isolated vertices
// and random graphs with duplicate edges and zero and −0 weights.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph{graphFromCSR(star(400)), graphFromCSR(twoGrids()), graphFromCSR(withIsolated())}
	for range 60 {
		graphs = append(graphs, randomGraph(rng, 1+rng.Intn(500), 1+rng.Intn(4)))
	}
	fracs := []float64{0.5, 1.0 / 3, 4.0 / 7, 0.25}
	moved := 0
	for gi, g := range graphs {
		frac := fracs[gi%len(fracs)]
		moved += checkRefine(t, "all-ones", g, balancedSides(rng, g, frac), ones(g.n), frac)

		ws := newWorkspace(g, nil, int64(gi))
		cmap, coarse := ws.coarsen(g)
		cside, cother := balancedSides(rng, &coarse, frac), ones(coarse.n)
		moved += checkRefine(t, "coarse", &coarse, cside, cother, frac)
		side, other := make([]int32, g.n), make([]int32, g.n)
		project(cmap, cside, cother, side, other)
		moved += checkRefine(t, "projected", g, side, other, frac)
	}
	if moved < 1000 {
		t.Errorf("refine moved %d vertices in all: the comparison is nearly vacuous", moved)
	}
}

// TestRefineSkipsNaNGain: vertex 2 has two 1e308 edges to each side, so
// both of its sums overflow to +Inf and its gain is NaN. The old refine
// moved it (NaN <= 0 is false), which made vertex 3 a boundary vertex and
// moved that too; refine moves nothing, since vertex 0, the one finite
// positive gain, would leave side 0 under its lower bound.
func TestRefineSkipsNaNGain(t *testing.T) {
	const w = 1e308
	g := graphOf([][]edge{{{2, w}}, {{2, w}}, {{0, w}, {1, w}, {3, w}, {4, w}}, {{2, w}}, {{2, w}}}, ones(5))
	start := []int32{0, 0, 1, 1, 1}
	old := slices.Clone(start)
	oldRefine(g, old, 2.0/3)
	if want := []int32{0, 0, 0, 0, 1}; !slices.Equal(old, want) {
		t.Fatalf("the old refine left %v, want %v: the graph no longer shows the NaN move", old, want)
	}
	side := slices.Clone(start)
	refine(g, side, ones(5), make([]int32, 5), 2.0/3)
	if !slices.Equal(side, start) {
		t.Errorf("refine moved %v to %v: a NaN gain is no gain", start, side)
	}
}

// sameGraph reports whether two graphs are equal, weights by bits.
func sameGraph(a, b *graph) bool {
	return a.n == b.n && slices.Equal(a.xadj, b.xadj) && slices.Equal(a.adj, b.adj) && slices.Equal(a.vw, b.vw) &&
		slices.EqualFunc(a.ew, b.ew, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// referenceInputs are the graphs the recursion is compared on: a mesh, two
// disconnected grids, a grid with isolated vertices, a star, and random
// graphs, each with its part count.
func referenceInputs() []struct {
	g *graph
	k int
} {
	rng := rand.New(rand.NewSource(11))
	in := []struct {
		g *graph
		k int
	}{
		{graphFromCSR(problem.FEM2D(40, 0.3, 2)), 13},
		{graphFromCSR(twoGrids()), 6},
		{graphFromCSR(withIsolated()), 5},
		{graphFromCSR(star(400)), 4},
		{graphFromCSR(problem.Poisson2D(12, 12)), 143},
	}
	for range 30 {
		n := 3 + rng.Intn(600)
		in = append(in, struct {
			g *graph
			k int
		}{randomGraph(rng, n, 1+rng.Intn(4)), 2 + rng.Intn(min(n-2, 40))})
	}
	return in
}

// TestInduceMatchesReference: at every stage of the recursion, the half
// induced from its parent subgraph equals, bit for bit, the subgraph the old
// induce cut from ws.g on the same vertices.
func TestInduceMatchesReference(t *testing.T) {
	for i, c := range referenceInputs() {
		ws := newWorkspace(c.g, make([]int, c.g.n), 1)
		old := newOldWorkspace(ws)
		stages := 0
		var walk func(g *graph, ids []int32, k int)
		walk = func(g *graph, ids []int32, k int) {
			kl := k / 2
			m := ws.mark()
			side := ws.i32.alloc(g.n)
			ws.bisect(g, float64(kl)/float64(k), side, ws.i32.alloc(g.n))
			for s, ks := range []int{kl, k - kl} {
				if ks == 1 {
					continue
				}
				hm := ws.mark()
				sub, subIDs := ws.induce(g, ids, side, int32(s))
				if want := old.oldInduce(subIDs); !sameGraph(&sub, &want) {
					t.Fatalf("input %d, stage %d: the half induced from its parent differs from the one induced from ws.g", i, stages)
				}
				stages++
				walk(&sub, subIDs, ks)
				ws.release(hm)
			}
			ws.release(m)
		}
		ids := make([]int32, c.g.n)
		for v := range ids {
			ids[v] = int32(v)
		}
		walk(c.g, ids, c.k)
		if c.k > 3 && stages == 0 {
			t.Errorf("input %d: k = %d and no stage compared", i, c.k)
		}
	}
}

// TestPartitionMatchesReference: the recursion that bisects ws.g itself and
// induces each half from its parent labels every vertex as the old one,
// which induced every stage from ws.g, did.
func TestPartitionMatchesReference(t *testing.T) {
	for i, c := range referenceInputs() {
		got, want := make([]int, c.g.n), make([]int, c.g.n)
		newWorkspace(c.g, got, 5).partition(c.k)
		newOldWorkspace(newWorkspace(c.g, want, 5)).oldPartition(c.k)
		if !samePart(got, want) {
			t.Errorf("input %d (n = %d, k = %d): part vector differs from the old recursion's", i, c.g.n, c.k)
		}
	}
}
