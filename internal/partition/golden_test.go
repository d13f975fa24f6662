package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// partHash is SHA-256 over the part ids, each a little-endian uint64.
func partHash(part []int) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range part {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func scaled(t testing.TB, a *sparse.CSR) *sparse.CSR {
	t.Helper()
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	return a
}

func flan(t testing.TB) *sparse.CSR {
	t.Helper()
	ent, ok := problem.SuiteByName("Flan_1565")
	if !ok {
		t.Fatal("suite matrix Flan_1565 missing")
	}
	return scaled(t, ent.Gen())
}

// addBlock copies g into c with its rows and columns shifted by off.
func addBlock(c *sparse.COO, g *sparse.CSR, off int) {
	for i := 0; i < g.N; i++ {
		cols, vals := g.Row(i)
		for k, j := range cols {
			c.Add(off+i, off+int(j), vals[k])
		}
	}
}

// twoGrids is a disconnected graph: an 18x18 and a 15x15 Poisson grid with
// no edge between them.
func twoGrids() *sparse.CSR {
	g1, g2 := problem.Poisson2D(18, 18), problem.Poisson2D(15, 15)
	c := sparse.NewCOO(g1.N+g2.N, g1.NNZ()+g2.NNZ())
	addBlock(c, g1, 0)
	addBlock(c, g2, g1.N)
	return c.ToCSR()
}

// star is a hub joined to n-1 leaves: heavy-edge matching pairs the hub
// with one leaf and leaves the rest single, so the first coarsening level
// keeps more than 9/10 of the vertices and bisect takes its "matching
// stalled" branch.
func star(n int) *sparse.CSR {
	c := sparse.NewCOO(n, 3*n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n))
	}
	for i := 1; i < n; i++ {
		c.AddSym(0, i, -1-float64(i%5))
	}
	return c.ToCSR()
}

// withIsolated is a 16x16 Poisson grid followed by 40 rows that have only a
// diagonal entry: vertices with no edge at all.
func withIsolated() *sparse.CSR {
	g := problem.Poisson2D(16, 16)
	c := sparse.NewCOO(g.N+40, g.NNZ()+40)
	addBlock(c, g, 0)
	for i := g.N; i < g.N+40; i++ {
		c.Add(i, i, 4)
	}
	return c.ToCSR()
}

// TestPartitionGolden pins the partitioner's output bit for bit; every
// results/*.txt table and the end-to-end benchmark's solve metrics depend on
// it. The six inputs at most kwayMinRows rows per part or with a stalling
// first matching (flan/4096, pois/2048, pois/8192, isolated/5, grid12/n-1,
// star/4) keep the hashes captured on the map-and-append implementation
// that preceded the workspace one: they are partitioned by recursive
// bisection alone. The other five were re-captured when Partition began
// coarsening once.
func TestPartitionGolden(t *testing.T) {
	fl := flan(t)
	pois := scaled(t, problem.Poisson2D(256, 256))
	cases := []struct {
		name string
		a    *sparse.CSR
		k    int
		want string
	}{
		{"flan/7", fl, 7, "6e04a403467435869110c75534f06da29c3ebcbae42d12c5fd24da3fff84a1a9"},
		{"flan/64", fl, 64, "ae84f9d0fe665041190c88d2b6a32252784a1768dfda27727bed0b3f5b45d68f"},
		{"flan/256", fl, 256, "fafa213131ce173877613ae9f64207058343e4955484bb75ef7f06573e5ae334"},
		{"flan/4096", fl, 4096, "251d60863f9e50e7de58b29e8db87ec093abca4d28f6bc70951fccf731366f7c"},
		{"pois/2048", pois, 2048, "6e35f440d8012d1a7efc5f0ba85abb4754c3d5c6352ab56d6a2e5fb3c17bd507"},
		{"pois/8192", pois, 8192, "cc449b0401959598a779b5a26f00f1393b754ba8e6395ab767ae2f3767ff8c84"},
		{"fem2d/13", problem.FEM2D(40, 0.3, 2), 13, "6b40114b8cd4d69d3b7ebb395899f7e5fb4ca12898985b9953f13e3babf78cbe"},
		{"disconnected/6", twoGrids(), 6, "87aa289e7db26cb957ce88ab814d26ff5b354d945761d6f47df80f5f4d135c5b"},
		{"isolated/5", withIsolated(), 5, "077c7a2da31ba8495360258d3d21f38d2d86943f6c195e1a6be4286669af96b8"},
		{"grid12/n-1", problem.Poisson2D(12, 12), 143, "cd2749d7c56aa0a2fd0d687789955ff1c025fd5b8bb5c4698e8cba84d28f78c5"},
		{"star/4", star(400), 4, "11d9ddb29fe0c6831f2c47a1250035c719e547bf95994c91c69f6bc182806448"},
	}
	for _, c := range cases {
		got := partHash(Partition(c.a, c.k, Options{Seed: 1}))
		if got != c.want {
			t.Errorf("%s: part hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPartitionDegenerateSizes: the sizes on which the multilevel scheme is
// never entered return their fixed answers.
func TestPartitionDegenerateSizes(t *testing.T) {
	empty := sparse.NewCOO(0, 0).ToCSR()
	one := problem.Poisson2D(1, 1)
	for _, k := range []int{1, 2, 5} {
		if part := Partition(empty, k, Options{Seed: 1}); len(part) != 0 {
			t.Errorf("n=0 k=%d: got %v, want empty", k, part)
		}
		if part := Partition(one, k, Options{Seed: 1}); len(part) != 1 || part[0] != 0 {
			t.Errorf("n=1 k=%d: got %v, want [0]", k, part)
		}
	}
}

// TestPartitionConcurrentCalls: two Partition calls running at once on
// different matrices return what each returns alone (bench builds the
// set-ups of one run set concurrently; the workspace belongs to one call).
// Run with -race.
func TestPartitionConcurrentCalls(t *testing.T) {
	a, b := problem.FEM2D(40, 0.3, 2), problem.Poisson2D(60, 60)
	wantA := Partition(a, 13, Options{Seed: 1})
	wantB := Partition(b, 100, Options{Seed: 1})
	for round := 0; round < 4; round++ {
		gotA := make(chan []int)
		go func() { gotA <- Partition(a, 13, Options{Seed: 1}) }()
		gotB := Partition(b, 100, Options{Seed: 1})
		if !samePart(<-gotA, wantA) || !samePart(gotB, wantB) {
			t.Fatalf("round %d: concurrent Partition calls differ from the same calls run alone", round)
		}
	}
}
