package spdirect_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"southwell/internal/dmem"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/sparse"
	"southwell/internal/spdirect"
)

// block is one SPD matrix in the form Analyze/Factorize take.
type block struct {
	name   string
	n      int
	rowPtr []int
	col    []int
	val    []float64
}

func csrBlock(name string, a *sparse.CSR) block {
	return block{name, a.N, widen(a.RowPtr), widen(a.Col), a.Val}
}

// direct64 holds the 64 diagonal blocks of the benchmark's direct64 workload
// (Flan_1565 scaled, partition seed 1, P = 64), assembled the way dmem hands
// them to Analyze: diagonal first, then the local couplings in source order.
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
		var l *dmem.Layout
		l, direct64.err = dmem.NewLayout(a, partition.Partition(a, ranks, partition.Options{Seed: 1}), ranks)
		if direct64.err != nil {
			return
		}
		for p := range l.P {
			rd := l.Rank(p)
			m := rd.M()
			bl := block{name: "direct64-rank" + strconv.Itoa(p), n: m, rowPtr: make([]int, m+1)}
			for li := 0; li < m; li++ {
				bl.col = append(bl.col, li)
				bl.val = append(bl.val, rd.Diag[li])
				for k := rd.LocPtr[li]; k < rd.LocPtr[li+1]; k++ {
					bl.col = append(bl.col, int(rd.LocCol[k]))
					bl.val = append(bl.val, rd.LocVal[k])
				}
				bl.rowPtr[li+1] = len(bl.col)
			}
			direct64.blocks = append(direct64.blocks, bl)
		}
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

// TestRefactorMatchesReference: the production numeric factorization
// reproduces the reference loops' Li, Lx and D bit for bit, on values that
// factor and on values that fail part-way (the partial state and the clean
// accumulator are part of TestRefactorAfterFailureRecovers' contract).
func TestRefactorMatchesReference(t *testing.T) {
	for _, bl := range oracleBlocks(t) {
		name := bl.name
		sym, err := spdirect.Analyze(bl.n, bl.rowPtr, bl.col)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := sym.Factorize(bl.val)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := sym.Factorize(bl.val)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// An indefinite variant: flip the sign of the values from the middle
		// row on, so elimination runs for a while and then meets a bad pivot.
		bad := append([]float64(nil), bl.val...)
		for p := bl.rowPtr[bl.n/2]; p < len(bad); p++ {
			bad[p] = -bad[p]
		}
		for _, vals := range [][]float64{bl.val, bad, bl.val} {
			for i := range ref.Li {
				ref.Li[i], ref.Lx[i] = -1, math.NaN()
			}
			for i := range ref.D {
				ref.D[i] = math.NaN()
			}
			copy(got.Li, ref.Li)
			copy(got.Lx, ref.Lx)
			copy(got.D, ref.D)
			refOK := spdirect.RefactorRef(ref, vals)
			if gotOK := got.Refactor(vals) == nil; gotOK != refOK {
				t.Fatalf("%s: Refactor ok = %v, reference %v", name, gotOK, refOK)
			}
			for i := range ref.Li {
				if got.Li[i] != ref.Li[i] {
					t.Fatalf("%s: Li[%d] = %d, reference %d", name, i, got.Li[i], ref.Li[i])
				}
			}
			if i := sameBits(got.Lx, ref.Lx); i >= 0 {
				t.Fatalf("%s: Lx[%d] = %x, reference %x", name, i, got.Lx[i], ref.Lx[i])
			}
			if i := sameBits(got.D, ref.D); i >= 0 {
				t.Fatalf("%s: D[%d] = %x, reference %x", name, i, got.D[i], ref.D[i])
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
		f, err := spdirect.Factorize(bl.n, bl.rowPtr, bl.col, bl.val)
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
func permHash(perms ...[]int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, perm := range perms {
		put(len(perm))
		for _, v := range perm {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRCMPermGolden pins the reverse Cuthill-McKee permutation: every factor
// pattern, hence every bit a LocalDirect run prints, sits on it. The hashes
// were captured on the sort.Slice / per-iteration-visited implementation
// that preceded the stamp array; a new hash is an output-changing change.
func TestRCMPermGolden(t *testing.T) {
	analyze := func(bl block) []int {
		sym, err := spdirect.Analyze(bl.n, bl.rowPtr, bl.col)
		if err != nil {
			t.Fatal(err)
		}
		return sym.Perm
	}
	var d64 [][]int
	for _, bl := range direct64Blocks(t) {
		d64 = append(d64, analyze(bl))
	}
	for _, c := range []struct {
		name, want string
		perms      [][]int
	}{
		{"direct64", "85166e9fc794fa419c0159de0b62cc5ba4c1f92d0842aff9a18edb358244e8b5", d64},
		{"poisson2d-66", "50d3df7fde7a65ca94106ad090ed3ec3dbee688c662e1e5fece055b104fc5557", [][]int{analyze(csrBlock("", problem.Poisson2D(66, 66)))}},
		{"disconnected", "3ebf4d1fd2c23fd0800667c4655a44b0e34604183525ca6514b8374bbef6ca60", [][]int{analyze(disconnectedBlock())}},
	} {
		if got := permHash(c.perms...); got != c.want {
			t.Errorf("%s: Perm hash %s, want %s", c.name, got, c.want)
		}
	}
}
