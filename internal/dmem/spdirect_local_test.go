package dmem

import (
	"math"
	"testing"

	"southwell/internal/parallel"
	"southwell/internal/problem"
	"southwell/internal/spdirect"
)

// TestEngineEquivalenceWithSparseLocal extends the engine-equivalence
// invariant to the exact local solvers: with LocalDirect (sparse LDLᵀ on
// every rank) and LocalAuto (per-rank crossover), the worker-pool engine
// must produce bit-identical histories, statistics, and solutions to the
// sequential engine on a real suite matrix. Run under -race via `make
// race`, this also proves the concurrent setup factorization is
// race-free.
func TestEngineEquivalenceWithSparseLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	e, ok := problem.SuiteByName("Hook_1498")
	if !ok {
		t.Fatal("unknown suite matrix Hook_1498")
	}
	const ranks, steps = 64, 12
	for _, local := range []LocalSolver{LocalDirect, LocalAuto} {
		for mname, run := range methods() {
			t.Run(mname, func(t *testing.T) {
				s, b, x := buildCaseLocal(t, e.Gen(), ranks, 1, local)
				seq := run(s, b, x, Config{Steps: steps})
				s2, b2, x2 := buildCaseLocal(t, e.Gen(), ranks, 1, local)
				par := run(s2, b2, x2, Config{Steps: steps, Parallel: true})
				compareRuns(t, "pool", seq, par)
			})
		}
	}
}

// factorAllRanks runs the concurrent setup factorization of a fresh layout
// of matrix e under the given policy.
func factorAllRanks(t *testing.T, e problem.SuiteEntry, ranks int, local LocalSolver) *Setup {
	t.Helper()
	s, _, _ := buildCaseLocal(t, e.Gen(), ranks, 1, local)
	return s
}

// TestLocalFactorWidthInvariant pins the determinism contract of the
// concurrent setup factorization: the factors NewSetup produces
// are bit-identical at every kernel-pool width. Sparse factors are
// compared entry-by-entry (pattern, L values, pivots); dense factors via
// the solve they produce on a fixed right-hand side.
func TestLocalFactorWidthInvariant(t *testing.T) {
	e, ok := problem.SuiteByName("Hook_1498")
	if !ok {
		t.Fatal("unknown suite matrix Hook_1498")
	}
	const ranks = 48
	orig := parallel.Default().Workers()
	defer parallel.SetDefaultWorkers(orig)

	for _, local := range []LocalSolver{LocalDirect, LocalAuto} {
		parallel.SetDefaultWorkers(1)
		ref := factorAllRanks(t, e, ranks, local)
		for _, w := range []int{2, 4, 7} {
			parallel.SetDefaultWorkers(w)
			got := factorAllRanks(t, e, ranks, local)
			for p := range ref.factors {
				rf, gf := ref.factors[p], got.factors[p]
				sref, sok := rf.(*ldlShared)
				sgot, gok := gf.(*ldlShared)
				if sok != gok {
					t.Fatalf("local=%v width %d rank %d: backend choice differs", local, w, p)
				}
				if sok {
					compareSparseFactors(t, local, w, p, sref.f, sgot.f)
					continue
				}
				// Dense backend: the factor internals are unexported, so
				// compare through a solve on a deterministic rhs.
				m := ref.Layout.Rank(p).M()
				b := make([]float64, m)
				for i := range b {
					b[i] = 1 / float64(1+i)
				}
				xr, xg := make([]float64, m), make([]float64, m)
				rf.SolveInto(b, xr, make([]float64, rf.ScratchLen()))
				gf.SolveInto(b, xg, make([]float64, gf.ScratchLen()))
				for i := range xr {
					if xr[i] != xg[i] {
						t.Fatalf("local=%v width %d rank %d: dense solve differs at %d: %.17g vs %.17g",
							local, w, p, i, xr[i], xg[i])
					}
				}
			}
		}
	}
}

func compareSparseFactors(t *testing.T, local LocalSolver, w, p int, a, b *spdirect.Factor) {
	t.Helper()
	if len(a.Li) != len(b.Li) || len(a.D) != len(b.D) {
		t.Fatalf("local=%v width %d rank %d: factor shapes differ", local, w, p)
	}
	for i := range a.Li {
		if a.Li[i] != b.Li[i] || a.Lx[i] != b.Lx[i] {
			t.Fatalf("local=%v width %d rank %d: L entry %d differs", local, w, p, i)
		}
	}
	for i := range a.D {
		if a.D[i] != b.D[i] {
			t.Fatalf("local=%v width %d rank %d: pivot %d differs: %.17g vs %.17g",
				local, w, p, i, a.D[i], b.D[i])
		}
	}
}

// TestSparseLocalMatchesDenseOnSuiteBlocks checks the sparse LDLᵀ backend
// against the dense LU backend on the actual subdomain diagonal blocks of
// real suite matrices — the exact inputs LocalDirect sees in production,
// boundary-truncated rows and all. Both are exact solvers, so their
// solutions must agree to roundoff.
func TestSparseLocalMatchesDenseOnSuiteBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("factors every block of suite matrices")
	}
	for _, name := range []string{"Hook_1498", "af_5_k101"} {
		e, ok := problem.SuiteByName(name)
		if !ok {
			t.Fatalf("unknown suite matrix %q", name)
		}
		s, _, _ := buildCase(t, e.Gen(), 32, 1)
		for p := range s.Layout.P {
			sparseSF, err := factorShared(s.Layout, p, LocalDirect)
			if err != nil {
				t.Fatalf("%s rank %d: sparse factorization failed: %v", name, p, err)
			}
			denseSF, err := factorSharedDense(s.Layout, p)
			if err != nil {
				t.Fatalf("%s rank %d: dense factorization failed: %v", name, p, err)
			}
			m := s.Layout.Rank(p).M()
			b := make([]float64, m)
			for i := range b {
				b[i] = math.Sin(float64(i + 1))
			}
			xs, xd := make([]float64, m), make([]float64, m)
			sparseSF.SolveInto(b, xs, make([]float64, sparseSF.ScratchLen()))
			denseSF.SolveInto(b, xd, make([]float64, denseSF.ScratchLen()))
			scale := 0.0
			for i := range xd {
				if v := math.Abs(xd[i]); v > scale {
					scale = v
				}
			}
			for i := range xs {
				if d := math.Abs(xs[i] - xd[i]); d > 1e-11*(1+scale) {
					t.Fatalf("%s rank %d row %d: sparse %.17g vs dense %.17g (diff %g)",
						name, p, i, xs[i], xd[i], d)
				}
			}
		}
	}
}
