package dmem

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"southwell/internal/problem"
)

// Reference oracles: the two relaxation kernels exactly as they were written
// before their operands moved into locals (DESIGN.md §10, "Kernel form").
// They index through rs and the rank's RankData view on every nonzero — slow
// and obviously right.
// Do not tidy them: their value is that they are not the code under test.

// relaxSweepRef is the pre-rewrite relaxSweep.
func (rs *rankState) relaxSweepRef() float64 {
	rd := rs.l.Rank(int(rs.p))
	for li := range rs.r {
		d := rs.r[li] / rd.Diag[li]
		rs.x[li] += d
		rs.r[li] = 0
		for k := rd.LocPtr[li]; k < rd.LocPtr[li+1]; k++ {
			rs.r[rd.LocCol[k]] -= rd.LocVal[k] * d
		}
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d
		}
	}
	return float64(2*rd.NNZ + 3*rd.M())
}

// relaxDirectRef is the pre-rewrite relaxDirect (the solve it calls has its
// own oracle in internal/spdirect). It zeroes r[li] before it reads d[li],
// so d is a buffer of its own, never r.
func (rs *rankState) relaxDirectRef() float64 {
	rd := rs.l.Rank(int(rs.p))
	d := make([]float64, len(rs.r))
	rs.direct.f.SolveWith(rs.r, d, rs.direct.scratch)
	for li := range rs.r {
		rs.x[li] += d[li]
		rs.r[li] = 0
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d[li]
		}
	}
	return rs.direct.f.SolveFlops() + float64(rd.NNZ) + float64(rd.M())
}

// direct64 is the benchmark's direct64 workload as a Setup: Flan_1565
// scaled, partition seed 1, 64 ranks, sparse LDLᵀ on every rank. Shared by
// the oracle and BenchmarkLocalSolveCycled; both only read it.
var direct64 struct {
	once  sync.Once
	setup *Setup
	b, x  []float64
}

func direct64Setup(tb testing.TB) (*Setup, []float64, []float64) {
	tb.Helper()
	direct64.once.Do(func() {
		gs, b, x := buildCase(tb, suiteMatrix(tb, "Flan_1565"), 64, 1)
		s, err := NewSetup(gs.Layout, LocalDirect)
		if err != nil {
			tb.Fatal(err)
		}
		direct64.setup, direct64.b, direct64.x = s, b, x
	})
	if direct64.setup == nil {
		tb.Fatal("direct64 set-up failed in an earlier test")
	}
	return direct64.setup, direct64.b, direct64.x
}

// residualVariants rewrites r in place, one way per call index, so the
// kernels meet exact zeros, −0, denormals and non-finite values where a run
// would have ordinary residuals. Index 0 leaves r alone.
var residualVariants = []string{"as-reset", "exact-zeros", "neg-zero", "denormal", "inf", "nan"}

func applyResidualVariant(r []float64, variant int, rng *rand.Rand) {
	if len(r) == 0 {
		return
	}
	switch residualVariants[variant] {
	case "exact-zeros":
		for i := range r {
			if rng.Intn(2) == 0 {
				r[i] = 0
			}
		}
	case "neg-zero":
		for i := range r {
			switch rng.Intn(3) {
			case 0:
				r[i] = math.Copysign(0, -1)
			case 1:
				r[i] = 0
			}
		}
	case "denormal":
		for i := range r {
			r[i] *= 1e-308
		}
		r[rng.Intn(len(r))] = 5e-324
	case "inf":
		r[rng.Intn(len(r))] = math.Inf(1)
		r[rng.Intn(len(r))] = math.Inf(-1)
	case "nan":
		r[rng.Intn(len(r))] = math.NaN()
	}
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkRelaxOracle runs kernel on every rank of got and ref on every rank of
// want — two run states of one Setup, reset alike — for every residual
// variant, twice in a row (the second call starts from what the first left),
// and requires r, x, extDelta and the charged flops to agree bit for bit.
func checkRelaxOracle(t *testing.T, s *Setup, b, x0 []float64, kernel, ref func(*rankState) float64) {
	t.Helper()
	got, want := newRunState(s), newRunState(s)
	for v, vname := range residualVariants {
		got.reset(b, x0, Config{}, stepSpec{})
		want.reset(b, x0, Config{}, stepSpec{})
		rng := rand.New(rand.NewSource(int64(v) + 1))
		for p, g := range got.states {
			w := want.states[p]
			applyResidualVariant(g.r, v, rng)
			copy(w.r, g.r)
			// extDelta accumulates: start it from arbitrary values, not zero.
			for k := range g.extDelta {
				g.extDelta[k] = rng.Float64() - 0.5
			}
			copy(w.extDelta, g.extDelta)
			for pass := 0; pass < 2; pass++ {
				if gf, wf := kernel(g), ref(w); gf != wf {
					t.Fatalf("%s rank %d: charged %g flops, reference %g", vname, p, gf, wf)
				}
				for _, c := range []struct {
					name      string
					got, want []float64
				}{{"r", g.r, w.r}, {"x", g.x, w.x}, {"extDelta", g.extDelta, w.extDelta}} {
					if i := firstBitDiff(c.got, c.want); i >= 0 {
						t.Fatalf("%s rank %d pass %d: %s[%d] = %x, reference %x", vname, p, pass, c.name, i, c.got[i], c.want[i])
					}
				}
				// A direct solve leaves r = 0; give the second pass work.
				for i := range g.r {
					g.r[i] += g.x[i]
				}
				copy(w.r, g.r)
			}
		}
	}
}

// TestRelaxKernelsMatchReference is the bit-equality oracle of the two
// relaxation kernels, on the layouts the benchmark runs them on — every rank
// of direct64 (Flan_1565, P = 64) for the direct solve, of Flan_1565 at
// P = 256 (suite256) for the sweep — and on a layout of one-to-three-row
// ranks.
func TestRelaxKernelsMatchReference(t *testing.T) {
	sweep, sweepRef := (*rankState).relaxSweep, (*rankState).relaxSweepRef
	direct, directRef := (*rankState).relaxDirect, (*rankState).relaxDirectRef

	s64, b, x := direct64Setup(t)
	t.Run("direct64/direct", func(t *testing.T) { checkRelaxOracle(t, s64, b, x, direct, directRef) })
	gs64, err := NewSetup(s64.Layout, LocalGS)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("direct64/sweep", func(t *testing.T) { checkRelaxOracle(t, gs64, b, x, sweep, sweepRef) })

	s, b, x := buildCase(t, suiteMatrix(t, "Flan_1565"), 256, 1)
	t.Run("suite256/sweep", func(t *testing.T) { checkRelaxOracle(t, s, b, x, sweep, sweepRef) })

	s, b, x = buildCase(t, problem.Poisson2D(5, 5), 12, 1)
	t.Run("tiny/sweep", func(t *testing.T) { checkRelaxOracle(t, s, b, x, sweep, sweepRef) })
	exact, err := NewSetup(s.Layout, LocalDirect)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("tiny/direct", func(t *testing.T) { checkRelaxOracle(t, exact, b, x, direct, directRef) })
}
