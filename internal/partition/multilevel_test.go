package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// bisected is recursive bisection alone on a's graph: what Partition
// returned before it coarsened once, and what it still returns on a graph
// it keeps no coarse level of.
func bisected(a *sparse.CSR, k int, seed int64) []int {
	part := make([]int, a.N)
	newWorkspace(graphFromCSR(a), part, seed).partition(k)
	return part
}

// keepsNoLevel reports whether multilevel partitions g by recursive
// bisection alone: at most kwayMinRows·k vertices, or a first matching
// that stalls.
func keepsNoLevel(g *graph, k int, seed int64) bool {
	if g.n <= kwayMinRows*k {
		return true
	}
	ws := newWorkspace(g, make([]int, g.n), seed)
	_, _, ok := ws.coarsenFor(g, kwayCoarsenTo*k)
	return !ok
}

// TestMultilevelBypassIsBisection: whenever the front end keeps no coarse
// level, Partition is recursive bisection byte for byte, its random stream
// untouched. Checked on random graphs of both kinds (small for k, and
// stars, whose first matching stalls) and on the golden cases that take
// the bypass, flan/300 among them: 59 rows per part, above kwayCoarsenTo
// and at most kwayMinRows. It also checks that the golden cases above
// kwayMinRows rows per part do not.
func TestMultilevelBypassIsBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bypassed := 0
	for i := range 40 {
		n := 3 + rng.Intn(800)
		g := randomGraph(rng, n, 1+rng.Intn(3))
		if i%4 == 0 {
			g = graphFromCSR(star(100 + rng.Intn(700)))
		}
		k := 2 + rng.Intn(min(g.n-2, 40))
		if !keepsNoLevel(g, k, 7) {
			continue
		}
		bypassed++
		got, want := make([]int, g.n), make([]int, g.n)
		newWorkspace(g, got, 7).multilevel(k)
		newWorkspace(g, want, 7).partition(k)
		if !samePart(got, want) {
			t.Errorf("random graph %d (n = %d, k = %d): bypass differs from recursive bisection", i, g.n, k)
		}
	}
	if bypassed < 20 {
		t.Errorf("only %d random graphs took the bypass", bypassed)
	}

	fl := flan(t)
	pois := scaled(t, problem.Poisson2D(256, 256))
	for _, c := range []struct {
		name   string
		a      *sparse.CSR
		k      int
		bypass bool
	}{
		{"flan/4096", fl, 4096, true},
		{"flan/300", fl, 300, true},
		{"pois/2048", pois, 2048, true},
		{"pois/8192", pois, 8192, true},
		{"grid12/n-1", problem.Poisson2D(12, 12), 143, true},
		{"star/4", star(400), 4, true},
		{"flan/7", fl, 7, false},
		{"flan/256", fl, 256, false},
		{"fem2d/13", problem.FEM2D(40, 0.3, 2), 13, false},
		{"isolated/5", withIsolated(), 5, true},
		{"disconnected/6", twoGrids(), 6, false},
	} {
		if got := keepsNoLevel(graphFromCSR(c.a), c.k, 1); got != c.bypass {
			t.Errorf("%s: keeps no level = %v, want %v", c.name, got, c.bypass)
			continue
		}
		if c.bypass && !samePart(Partition(c.a, c.k, Options{Seed: 1}), bisected(c.a, c.k, 1)) {
			t.Errorf("%s: Partition differs from recursive bisection", c.name)
		}
	}
}

// TestMultilevelQuality holds the coarsen-once partitioner to recursive
// bisection of the same graph over the 14 suite matrices at P = 256 (Flan
// at 256 is the suite256 shape) and at P = 8, and the other three
// end-to-end shapes: the median edge-cut change is at most +3 %, no input's
// is above +10 %, and no input's imbalance is higher. At P = 256 all but
// Flan are at most kwayMinRows rows per part and so take the bypass; at
// P = 8 all 14 take the coarsen-once path.
func TestMultilevelQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions 31 inputs twice")
	}
	type input struct {
		name string
		a    *sparse.CSR
		k    int
	}
	var in []input
	for _, e := range problem.Suite() {
		a := scaled(t, e.Gen())
		in = append(in, input{e.Name + "/256", a, 256}, input{e.Name + "/8", a, 8})
	}
	fl := flan(t)
	in = append(in,
		input{"wide4k", fl, 4096},
		input{"pointload2k", scaled(t, problem.Poisson2D(256, 256)), 2048},
		input{"direct64", fl, 64})
	var changes []float64
	for _, c := range in {
		got, want := Partition(c.a, c.k, Options{Seed: 1}), bisected(c.a, c.k, 1)
		sg, sw := Quality(c.a, got, c.k), Quality(c.a, want, c.k)
		change := sg.EdgeCut/sw.EdgeCut - 1
		t.Logf("%-16s cut %+6.1f %%  imbalance %.3f -> %.3f", c.name, 100*change, sw.Imbalance, sg.Imbalance)
		if change > 0.10 {
			t.Errorf("%s: edge cut %.1f against bisection's %.1f (%+.1f %%), bound +10 %%", c.name, sg.EdgeCut, sw.EdgeCut, 100*change)
		}
		if sg.Imbalance > sw.Imbalance {
			t.Errorf("%s: imbalance %.3f above bisection's %.3f", c.name, sg.Imbalance, sw.Imbalance)
		}
		changes = append(changes, change)
	}
	slices.Sort(changes)
	if med := changes[len(changes)/2]; med > 0.03 {
		t.Errorf("median edge-cut change %+.1f %%, bound +3 %%", 100*med)
	}
}

// TestKWayRefineInvariants runs the k-way passes on random labellings of
// random graphs and of a weighted coarse level, and checks after every
// pass: the part weights and other-part counts equal a recount, no part is
// empty, and no move took its destination above hi or left its source
// below lo. A pass visits each vertex once, in index order, so replaying
// the changed labels in that order reproduces every move's weights.
func TestKWayRefineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var graphs []*graph
	for range 12 {
		graphs = append(graphs, randomGraph(rng, 200+rng.Intn(600), 1+rng.Intn(3)))
	}
	fine := graphFromCSR(problem.FEM2D(30, 0.3, 4))
	ws := newWorkspace(fine, make([]int, fine.n), 1)
	_, coarse := ws.coarsen(fine)
	graphs = append(graphs, fine, &coarse)

	moves := 0
	for gi, g := range graphs {
		k := 2 + rng.Intn(12)
		label := make([]int32, g.n)
		for v := range label {
			label[v] = int32(v % k) // every part non-empty, not balanced by weight
		}
		rng.Shuffle(len(label), func(i, j int) { label[i], label[j] = label[j], label[i] })
		other := make([]int32, g.n)
		for v := range other {
			other[v] = 1
		}
		ws := newWorkspace(g, make([]int, g.n), 1)
		r := ws.newKWayRefine(g, k, label, other)
		for pass := 0; pass < 2*kwayPasses; pass++ {
			before, w := slices.Clone(label), make([]int32, k)
			for v, p := range before {
				w[p] += g.vw[v]
			}
			moved := r.pass()
			changed := false
			for v := range label {
				if label[v] == before[v] {
					continue
				}
				changed = true
				moves++
				from, to, wv := before[v], label[v], g.vw[v]
				if float64(w[from]-wv) < r.lo || float64(w[to]+wv) > r.hi {
					t.Fatalf("graph %d pass %d: vertex %d moved %d → %d with weights %d → %d, bounds [%.1f, %.1f]",
						gi, pass, v, from, to, w[from], w[to], r.lo, r.hi)
				}
				w[from] -= wv
				w[to] += wv
			}
			if moved != changed {
				t.Fatalf("graph %d pass %d: pass reported moved = %v, labels changed = %v", gi, pass, moved, changed)
			}
			if !slices.Equal(w, r.w) {
				t.Fatalf("graph %d pass %d: part weights %v, recount %v", gi, pass, r.w, w)
			}
			for p, wp := range w {
				if wp == 0 {
					t.Fatalf("graph %d pass %d: part %d is empty", gi, pass, p)
				}
			}
			for v := int32(0); int(v) < g.n; v++ {
				n := int32(0)
				nbrs, _ := g.row(v)
				for _, u := range nbrs {
					if label[u] != label[v] {
						n++
					}
				}
				if r.other[v] != n {
					t.Fatalf("graph %d pass %d: vertex %d other-part count %d, recount %d", gi, pass, v, r.other[v], n)
				}
			}
			if !moved {
				break
			}
		}
	}
	if moves == 0 {
		t.Error("no pass moved a vertex")
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
