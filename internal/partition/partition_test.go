package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sideWeight returns the vertex weight on side 0, and cut the weight of
// the edges between the sides (each row entry once, so an edge counts from
// both ends).
func sideWeight(g *graph, side []int32) (w0 int, cut float64) {
	for v := int32(0); int(v) < g.n; v++ {
		if side[v] == 0 {
			w0 += int(g.vw[v])
		}
		nbrs, wts := g.row(v)
		for e, u := range nbrs {
			if side[u] != side[v] {
				cut += wts[e]
			}
		}
	}
	return w0, cut
}

// checkRefine runs refine from (side, other), fails the test if it breaks
// one of refine's invariants, and returns how many vertices changed side.
// The invariants: every other-side count is what a recount gives; side 0
// ends inside the balance window [lo, hi] — ⌊(1 ∓ imbalance)·frac·total⌋,
// the upper end plus one — whenever it started there, and a start outside
// it moves nothing unless the moves end inside; and the cut is never above
// its entry value (every move has a positive gain), up to the rounding of
// summing it.
func checkRefine(t *testing.T, name string, g *graph, side, other []int32, frac float64) int {
	t.Helper()
	start := slices.Clone(side)
	w0, cut0 := sideWeight(g, side)
	refine(g, side, other, make([]int32, g.n), frac)
	w1, cut1 := sideWeight(g, side)
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
	target := float64(g.totalVW()) * frac
	lo, hi := int(target*(1-imbalance)), int(target*(1+imbalance))+1
	inside := func(w int) bool { return lo <= w && w <= hi }
	moved := 0
	for v := range side {
		if side[v] != start[v] {
			moved++
		}
	}
	if !inside(w1) && (inside(w0) || moved > 0) {
		t.Fatalf("%s: side 0 weighs %d → %d after %d moves, window [%d, %d]", name, w0, w1, moved, lo, hi)
	}
	total := 0.0
	for _, w := range g.ew {
		total += math.Abs(w)
	}
	if cut1 > cut0+1e-9*total {
		t.Fatalf("%s: the cut rose from %g to %g", name, cut0, cut1)
	}
	return moved
}

// TestRefineInvariants: refine keeps its counts exact, the balance window
// and a cut no higher than it found, from counts taken from scratch
// (all-ones start), on a coarse level and from counts projected off a
// refined coarse level — on a star, two disconnected grids, a grid with
// isolated vertices and random graphs with duplicate edges and zero and
// −0 weights.
func TestRefineInvariants(t *testing.T) {
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
		t.Errorf("refine moved %d vertices in all: the check is nearly vacuous", moved)
	}
}

// TestRefineSkipsNaNGain: vertex 2 has two 1e308 edges to each side, so
// both of its sums overflow to +Inf and its gain is NaN. Refine used to
// move it (NaN <= 0 is false), which made vertex 3 a boundary vertex and
// moved that too; refine moves nothing, since vertex 0, the one finite
// positive gain, would leave side 0 under its lower bound. Moving vertex 2
// would leave side 0 at 3 of 5, inside the window, so only the NaN test
// keeps it in place.
func TestRefineSkipsNaNGain(t *testing.T) {
	const w = 1e308
	g := graphOf([][]edge{{{2, w}}, {{2, w}}, {{0, w}, {1, w}, {3, w}, {4, w}}, {{2, w}}, {{2, w}}}, ones(5))
	start := []int32{0, 0, 1, 1, 1}
	ext, inn := 0.0, 0.0
	nbrs, wts := g.row(2)
	for e, u := range nbrs {
		if start[u] == start[2] {
			inn += wts[e]
		} else {
			ext += wts[e]
		}
	}
	if gain := ext - inn; !math.IsNaN(gain) {
		t.Fatalf("vertex 2's gain is %g: the graph no longer shows a NaN gain", gain)
	}
	side := slices.Clone(start)
	refine(g, side, ones(5), make([]int32, 5), 2.0/3)
	if !slices.Equal(side, start) {
		t.Errorf("refine moved %v to %v: a NaN gain is no gain", start, side)
	}
}

// TestInduceKeepsInsideEdges checks induce against its definition, on the
// graph and on a half induced from it: the side-s vertices in their order,
// each with its id and weight, and each row the entries whose other end is
// on side s, in stored order, renumbered to the subgraph, weights by bits.
func TestInduceKeepsInsideEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*graph{graphFromCSR(star(400)), graphFromCSR(twoGrids()), graphFromCSR(withIsolated())}
	for range 30 {
		graphs = append(graphs, randomGraph(rng, 1+rng.Intn(600), 1+rng.Intn(4)))
	}
	kept := 0
	for gi, g := range graphs {
		ws := newWorkspace(g, make([]int, g.n), 1)
		ids := make([]int32, g.n)
		for v := range ids {
			ids[v] = int32(3*v + 1)
		}
		var check func(g *graph, ids []int32, depth int)
		check = func(g *graph, ids []int32, depth int) {
			side := make([]int32, g.n)
			for v := range side {
				side[v] = int32(rng.Intn(2))
			}
			for s := int32(0); s < 2; s++ {
				m := ws.mark()
				sub, subIDs := ws.induce(g, ids, side, s)
				local := make([]int32, g.n)
				j := int32(0)
				for v, sv := range side {
					if sv == s {
						local[v] = j
						j++
					}
				}
				if sub.n != int(j) || len(subIDs) != int(j) || len(sub.xadj) != int(j)+1 || sub.xadj[0] != 0 {
					t.Fatalf("graph %d depth %d side %d: %d vertices, %d ids, %d row pointers; %d vertices are on the side",
						gi, depth, s, sub.n, len(subIDs), len(sub.xadj), j)
				}
				for v, sv := range side {
					if sv != s {
						continue
					}
					i := local[v]
					if subIDs[i] != ids[v] || sub.vw[i] != g.vw[v] {
						t.Fatalf("graph %d depth %d side %d: vertex %d has id %d weight %d, want %d, %d", gi, depth, s, i, subIDs[i], sub.vw[i], ids[v], g.vw[v])
					}
					var wantAdj []int32
					var wantW []float64
					nbrs, wts := g.row(int32(v))
					for e, u := range nbrs {
						if side[u] == s {
							wantAdj, wantW = append(wantAdj, local[u]), append(wantW, wts[e])
						}
					}
					adj, w := sub.row(i)
					if !slices.Equal(adj, wantAdj) || !slices.EqualFunc(w, wantW, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
						t.Fatalf("graph %d depth %d side %d: row %d is %v %v, want %v %v", gi, depth, s, i, adj, w, wantAdj, wantW)
					}
					kept += len(adj)
				}
				if depth == 0 && sub.n > 0 {
					check(&sub, subIDs, 1)
				}
				ws.release(m)
			}
		}
		check(g, ids, 0)
	}
	if kept < 1000 {
		t.Errorf("induce kept %d entries in all: the check is nearly vacuous", kept)
	}
}
