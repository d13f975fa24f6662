package spdirect_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/sparse"
	"southwell/internal/spdirect"
)

// block is one SPD matrix in the form Factorize takes.
type block struct {
	name   string
	n      int
	rowPtr []int32
	col    []int32
	val    []float64
}

func csrBlock(name string, a *sparse.CSR) block {
	return block{name, a.N, a.RowPtr, a.Col, a.Val}
}

// direct64 holds the 64 diagonal blocks of the benchmark's direct64 workload
// (Flan_1565 scaled, partition seed 1, P = 64), assembled the way dmem hands
// them to Factorize: diagonal first, then the local couplings in source order.
var direct64 struct {
	once   sync.Once
	blocks []block
	err    error
}

func direct64Blocks(tb testing.TB) []block {
	tb.Helper()
	direct64.once.Do(func() {
		ent, ok := problem.SuiteByName("Flan_1565")
		if !ok {
			panic("suite matrix Flan_1565 missing")
		}
		a := ent.Gen()
		if _, direct64.err = sparse.Scale(a); direct64.err != nil {
			return
		}
		const ranks = 64
		part := partition.Partition(a, ranks, partition.Options{Seed: 1})
		local := make([]int32, a.N) // a row's index within its part
		blocks := make([]block, ranks)
		for p := range blocks {
			blocks[p] = block{name: "direct64-rank" + strconv.Itoa(p), rowPtr: []int32{0}}
		}
		for i, p := range part {
			bl := &blocks[p]
			local[i] = int32(bl.n)
			bl.n++
		}
		for i, p := range part {
			bl := &blocks[p]
			d := len(bl.col)
			bl.col = append(bl.col, local[i])
			bl.val = append(bl.val, 0)
			cols, vals := a.Row(i)
			for k, j := range cols {
				switch {
				case int(j) == i:
					bl.val[d] = vals[k]
				case part[j] == p:
					bl.col = append(bl.col, local[j])
					bl.val = append(bl.val, vals[k])
				}
			}
			bl.rowPtr = append(bl.rowPtr, int32(len(bl.col)))
		}
		direct64.blocks = blocks
	})
	if direct64.err != nil {
		tb.Fatal(direct64.err)
	}
	return direct64.blocks
}

// disconnectedBlock is an SPD block of several components: a 7×5 grid, a
// 9-node path, three isolated rows and a 4-clique, with the node ids of the
// components interleaved so no component is a contiguous index range.
func disconnectedBlock() block {
	grid := problem.Poisson2D(7, 5)
	const nPath, nIso, nClique = 9, 3, 4
	n := grid.N + nPath + nIso + nClique
	ids := rand.New(rand.NewSource(31)).Perm(n)
	coo := sparse.NewCOO(n, grid.NNZ()+64)
	for i := 0; i < grid.N; i++ {
		cols, vals := grid.Row(i)
		for k, c := range cols {
			coo.Add(ids[i], ids[c], vals[k])
		}
	}
	at := grid.N
	for i := 0; i < nPath; i++ {
		coo.Add(ids[at+i], ids[at+i], 2.5)
		if i > 0 {
			coo.Add(ids[at+i], ids[at+i-1], -1)
			coo.Add(ids[at+i-1], ids[at+i], -1)
		}
	}
	at += nPath
	for i := 0; i < nIso; i++ {
		coo.Add(ids[at+i], ids[at+i], float64(i+1))
	}
	at += nIso
	for i := 0; i < nClique; i++ {
		for j := 0; j < nClique; j++ {
			v := -0.25
			if i == j {
				v = 2
			}
			coo.Add(ids[at+i], ids[at+j], v)
		}
	}
	return csrBlock("disconnected", coo.ToCSR())
}

// oracleBlocks is the block set every oracle runs over.
func oracleBlocks(tb testing.TB) []block {
	blocks := []block{disconnectedBlock()}
	for _, n := range []int{0, 1, 2, 17, 300} {
		blocks = append(blocks, csrBlock("random-"+strconv.Itoa(n), randomSPD(n, 4, int64(100+n))))
	}
	return append(blocks, direct64Blocks(tb)...)
}

// rhsVariants are right-hand sides that reach every special case of the
// triangular solves: the forward zero skip (+0 and −0), gradual underflow,
// and non-finite propagation.
func rhsVariants(n int, seed int64) []struct {
	name string
	b    []float64
} {
	rng := rand.New(rand.NewSource(seed))
	random := func() []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		return b
	}
	plant := func(b []float64, vals ...float64) []float64 {
		for _, v := range vals {
			if n > 0 {
				b[rng.Intn(n)] = v
			}
		}
		return b
	}
	zeros := random()
	negz := random()
	for i := range zeros {
		switch rng.Intn(3) {
		case 0:
			zeros[i] = 0
			negz[i] = math.Copysign(0, -1)
		case 1:
			negz[i] = 0
		}
	}
	// Only zeros, of either sign: the one input on which the skip is visible
	// in the output (0·l is a signed zero, and −0 − (−0) = +0).
	signed := make([]float64, n)
	for i := range signed {
		if rng.Intn(2) == 0 {
			signed[i] = math.Copysign(0, -1)
		}
	}
	den := random()
	for i := range den {
		den[i] *= 1e-310
	}
	return []struct {
		name string
		b    []float64
	}{
		{"random", random()},
		{"all-zero", make([]float64, n)},
		{"exact-zeros", zeros},
		{"neg-zero", negz},
		{"signed-zeros", signed},
		{"denormal", den},
		{"tiny-mixed", plant(random(), 5e-324, -5e-324, 1e-308)},
		{"inf", plant(random(), math.Inf(1))},
		{"both-inf", plant(random(), math.Inf(1), math.Inf(-1))},
		{"nan", plant(random(), math.NaN())},
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestNumericMatchesReference: the production numeric factorization, its
// leading runs and tails expanded back to one row per entry, reproduces the
// reference loops' rows of L, Lx and D bit for bit, on values that
// factor and on an indefinite variant, which both must reject at the same
// permuted column with the same partial factor.
func TestNumericMatchesReference(t *testing.T) {
	for _, bl := range oracleBlocks(t) {
		// The indefinite variant flips the sign of the values from the middle
		// row on, so elimination runs for a while and then meets a bad pivot
		// (a non-positive diagonal entry always yields one).
		bad := append([]float64(nil), bl.val...)
		for p := bl.rowPtr[bl.n/2]; int(p) < len(bad); p++ {
			bad[p] = -bad[p]
		}
		for _, c := range []struct {
			name  string
			vals  []float64
			fails bool
		}{{bl.name, bl.val, false}, {bl.name + "/indefinite", bad, bl.n > 0}} {
			got, ref, gotBad, refBad := spdirect.NumericPasses(bl.rowPtr, bl.col, c.vals)
			if gotBad != refBad || (refBad >= 0) != c.fails {
				t.Fatalf("%s: fails at column %d, reference %d (want failure: %v)", c.name, gotBad, refBad, c.fails)
			}
			if rows := spdirect.Rows(got); !slices.Equal(rows, ref.Li) {
				i := 0
				for i < len(rows) && i < len(ref.Li) && rows[i] == ref.Li[i] {
					i++
				}
				t.Fatalf("%s: rows of L differ from the reference's from entry %d of %d / %d", c.name, i, len(rows), len(ref.Li))
			}
			if i := sameBits(got.Lx, ref.Lx); i >= 0 {
				t.Fatalf("%s: Lx[%d] = %x, reference %x", c.name, i, got.Lx[i], ref.Lx[i])
			}
			if i := sameBits(got.D, ref.D); i >= 0 {
				t.Fatalf("%s: D[%d] = %x, reference %x", c.name, i, got.D[i], ref.D[i])
			}
		}
	}
}

// TestSolveMatchesReference: SolveWith reproduces the reference solve's x
// and scratch y bit for bit on every block and right-hand side, with x
// separate from b and with x aliasing b.
func TestSolveMatchesReference(t *testing.T) {
	for _, bl := range oracleBlocks(t) {
		name := bl.name
		f, err := spdirect.Factorize(bl.rowPtr, bl.col, bl.val)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, y := make([]float64, bl.n), make([]float64, bl.n)
		xr, yr := make([]float64, bl.n), make([]float64, bl.n)
		for _, rhs := range rhsVariants(bl.n, int64(bl.n)+7) {
			f.SolveWith(rhs.b, x, y)
			spdirect.SolveRef(f, rhs.b, xr, yr)
			if i := sameBits(x, xr); i >= 0 {
				t.Fatalf("%s/%s: x[%d] = %x, reference %x", name, rhs.name, i, x[i], xr[i])
			}
			if i := sameBits(y, yr); i >= 0 {
				t.Fatalf("%s/%s: y[%d] = %x, reference %x", name, rhs.name, i, y[i], yr[i])
			}
			alias := append([]float64(nil), rhs.b...)
			f.SolveWith(alias, alias, y)
			if i := sameBits(alias, xr); i >= 0 {
				t.Fatalf("%s/%s: aliased x[%d] = %x, reference %x", name, rhs.name, i, alias[i], xr[i])
			}
		}
	}
}

// permHash is SHA-256 over the permutations, each entry a little-endian
// uint64, each permutation preceded by its length.
func permHash(perms ...[]int32) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, perm := range perms {
		put(len(perm))
		for _, v := range perm {
			put(int(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRCMOrderMatchesReference: the neighborhoods RCM walks, ordered
// by counting, equal what the per-row comparison sort made of them — so the
// permutation is the same function of them — on the 64 direct64 blocks, the
// disconnected block and random patterns outside Factorize's contract:
// asymmetric, with duplicate entries, self-loops and unsorted rows.
func TestRCMOrderMatchesReference(t *testing.T) {
	pats := []block{disconnectedBlock()}
	pats = append(pats, direct64Blocks(t)...)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 200} {
		for range 4 {
			rowPtr, col := make([]int32, n+1), []int32{}
			for i := range n {
				for range rng.Intn(6) {
					col = append(col, int32(rng.Intn(n)))
				}
				if rng.Intn(3) == 0 && len(col) > 0 { // a duplicate entry
					col = append(col, col[len(col)-1])
				}
				rowPtr[i+1] = int32(len(col))
			}
			pats = append(pats, block{rowPtr: rowPtr, col: col})
		}
	}
	for k, bl := range pats {
		deg, adjPtr, adj := spdirect.Neighborhoods(bl.rowPtr, bl.col)
		wantDeg, wantPtr, wantAdj := spdirect.NeighborhoodsRef(bl.rowPtr, bl.col)
		if !slices.Equal(deg, wantDeg) || !slices.Equal(adjPtr, wantPtr) || !slices.Equal(adj, wantAdj) {
			t.Fatalf("pattern %d (%s): neighborhoods %v, the reference's %v", k, bl.name, adj, wantAdj)
		}
	}
}

// TestRCMPermGolden pins the reverse Cuthill-McKee permutation: every factor
// pattern, hence every bit a LocalDirect run prints, sits on it. The hashes
// were captured on the sort.Slice / per-iteration-visited implementation
// that preceded the stamp array; a new hash is an output-changing change.
// The direct64 hash was re-captured when the partitioner began coarsening
// once: its blocks are the parts of a new partition, not a new ordering.
func TestRCMPermGolden(t *testing.T) {
	perm := func(bl block) []int32 {
		f, err := spdirect.Factorize(bl.rowPtr, bl.col, bl.val)
		if err != nil {
			t.Fatal(err)
		}
		return spdirect.Perm(f)
	}
	var d64 [][]int32
	for _, bl := range direct64Blocks(t) {
		d64 = append(d64, perm(bl))
	}
	for _, c := range []struct {
		name, want string
		perms      [][]int32
	}{
		{"direct64", "a5419b784cea24e7994882adb416add6d941b9ffb50c2579f83ff752420c14bb", d64},
		{"poisson2d-66", "50d3df7fde7a65ca94106ad090ed3ec3dbee688c662e1e5fece055b104fc5557", [][]int32{perm(csrBlock("", problem.Poisson2D(66, 66)))}},
		{"disconnected", "3ebf4d1fd2c23fd0800667c4655a44b0e34604183525ca6514b8374bbef6ca60", [][]int32{perm(disconnectedBlock())}},
	} {
		if got := permHash(c.perms...); got != c.want {
			t.Errorf("%s: Perm hash %s, want %s", c.name, got, c.want)
		}
	}
}
