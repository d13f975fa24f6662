package color

import (
	"testing"
	"testing/quick"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

func TestGreedyOnGrid(t *testing.T) {
	a := problem.Poisson2D(10, 10)
	c := Greedy(a)
	if !c.valid(a) {
		t.Fatal("invalid coloring")
	}
	// 5-point grids are bipartite: BFS-greedy should find exactly 2 colors.
	if c.NumColors != 2 {
		t.Errorf("grid colors = %d, want 2", c.NumColors)
	}
}

func TestGreedyOnFEM(t *testing.T) {
	a := problem.FEM2D(20, 0.3, 3)
	c := Greedy(a)
	if !c.valid(a) {
		t.Fatal("invalid coloring")
	}
	// Triangulations need >= 3 colors; greedy BFS typically 4-7 (paper: 6).
	if c.NumColors < 3 || c.NumColors > 9 {
		t.Errorf("FEM colors = %d, want 3..9", c.NumColors)
	}
}

func TestClassesPartition(t *testing.T) {
	a := problem.Poisson2D(7, 5)
	c := Greedy(a)
	seen := make([]bool, a.N)
	total := 0
	for _, class := range c.Classes() {
		prev := -1
		for _, v := range class {
			if v <= prev {
				t.Fatal("class not ascending")
			}
			prev = v
			if seen[v] {
				t.Fatal("vertex in two classes")
			}
			seen[v] = true
			total++
		}
	}
	if total != a.N {
		t.Fatalf("classes cover %d of %d vertices", total, a.N)
	}
}

func TestGreedyDisconnected(t *testing.T) {
	// Two disconnected triangles.
	coo := sparse.NewCOO(6, 12)
	tri := func(base int) {
		coo.AddSym(base, base+1, -1)
		coo.AddSym(base+1, base+2, -1)
		coo.AddSym(base, base+2, -1)
	}
	tri(0)
	tri(3)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 3)
	}
	a := coo.ToCSR()
	c := Greedy(a)
	if !c.valid(a) {
		t.Fatal("invalid coloring on disconnected graph")
	}
	if c.NumColors != 3 {
		t.Errorf("triangle needs 3 colors, got %d", c.NumColors)
	}
}

func TestQuickColoringValid(t *testing.T) {
	f := func(seed int64) bool {
		a := problem.FEM2D(5+int(seed%10+10)%10, 0.3, seed)
		c := Greedy(a)
		if !c.valid(a) {
			return false
		}
		for _, cv := range c.Color {
			if cv < 0 || cv >= c.NumColors {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// valid reports whether no two adjacent vertices of a share a color.
func (c Coloring) valid(a *sparse.CSR) bool {
	for v := 0; v < a.N; v++ {
		cols, _ := a.Row(v)
		for _, u := range cols {
			if int(u) != v && c.Color[u] == c.Color[v] {
				return false
			}
		}
	}
	return true
}
