package dmem

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"southwell/internal/dense"
	"southwell/internal/parallel"
	"southwell/internal/problem"
	"southwell/internal/spdirect"
)

// TestEngineEquivalenceWithSparseLocal extends the set-up width invariant
// to the exact local solver: with LocalDirect (sparse LDLᵀ on every rank),
// a set-up factorized on the worker pool at every width must give
// bit-identical histories, statistics, and solutions to one built at the
// default width on a real suite matrix, at 64 ranks and again at 256
// (blocks of a few dozen rows). Run under -race via `make race`, this also
// proves the concurrent setup factorization is race-free.
func TestEngineEquivalenceWithSparseLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	e, ok := problem.SuiteByName("Hook_1498")
	if !ok {
		t.Fatal("unknown suite matrix Hook_1498")
	}
	const steps = 12
	for _, ranks := range []int{64, 256} {
		for mname, run := range methods() {
			t.Run(mname, func(t *testing.T) {
				s, b, x := buildCaseLocal(t, e.Gen(), ranks, 1, LocalDirect)
				seq := run(s, b, x, Config{Steps: steps})
				eachWidth(func(k int) {
					s2, b2, x2 := buildCaseLocal(t, e.Gen(), ranks, 1, LocalDirect)
					compareRuns(t, fmt.Sprintf("pool w%d", k), seq, run(s2, b2, x2, Config{Steps: steps}))
				})
			})
		}
	}
}

// factorAllRanks runs the concurrent setup factorization of a fresh layout
// of matrix e.
func factorAllRanks(t *testing.T, e problem.SuiteEntry, ranks int) *Setup {
	t.Helper()
	s, _, _ := buildCaseLocal(t, e.Gen(), ranks, 1, LocalDirect)
	return s
}

// TestLocalFactorWidthInvariant pins the determinism contract of the
// concurrent setup factorization: the factors NewSetup produces are
// bit-identical at every kernel-pool width, entry by entry (pattern, L
// values, pivots).
func TestLocalFactorWidthInvariant(t *testing.T) {
	e, ok := problem.SuiteByName("Hook_1498")
	if !ok {
		t.Fatal("unknown suite matrix Hook_1498")
	}
	const ranks = 48
	orig := parallel.Default().Workers()
	defer parallel.SetDefaultWorkers(orig)

	parallel.SetDefaultWorkers(1)
	ref := factorAllRanks(t, e, ranks)
	for _, w := range []int{2, 4, 7} {
		parallel.SetDefaultWorkers(w)
		got := factorAllRanks(t, e, ranks)
		for p := range ref.factors {
			compareSparseFactors(t, w, p, ref.Factor(p), got.Factor(p))
		}
	}
}

// compareSparseFactors compares two factors entry by entry. The pivots come
// first, for a readable message; then reflect.DeepEqual covers every field,
// the unexported ordering, column pointers and leading-run lengths
// included, so the pattern of L is compared whatever form it is stored in.
// DeepEqual compares float64s with ==, as the pivot loop does.
func compareSparseFactors(t *testing.T, w, p int, a, b *spdirect.Factor) {
	t.Helper()
	if len(a.D) != len(b.D) {
		t.Fatalf("width %d rank %d: factor shapes differ", w, p)
	}
	for i := range a.D {
		if a.D[i] != b.D[i] {
			t.Fatalf("width %d rank %d: pivot %d differs: %.17g vs %.17g",
				w, p, i, a.D[i], b.D[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("width %d rank %d: ordering, pattern or values of L differ", w, p)
	}
}

// TestSparseLocalMatchesDenseOnSuiteBlocks checks the sparse LDLᵀ factor
// against a dense Cholesky factor of the same block, on the actual
// subdomain diagonal blocks of real suite matrices — the exact inputs
// LocalDirect sees in production, boundary-truncated rows and all, all SPD. Both are exact solvers, so
// their solutions must agree to roundoff.
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
		at, ext := make([]int32, s.Layout.A.N), s.Layout.extRows()
		for p := range s.Layout.P {
			rowPtr, col, val := localBlockCSR(s.Layout, at, ext, p)
			f, err := spdirect.Factorize(rowPtr, col, val)
			if err != nil {
				t.Fatalf("%s rank %d: sparse factorization failed: %v", name, p, err)
			}
			m := len(rowPtr) - 1
			dm := dense.NewMatrix(m)
			for i := range m {
				for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
					dm.Set(i, int(col[k]), val[k])
				}
			}
			ch, err := dense.FactorCholesky(dm)
			if err != nil {
				t.Fatalf("%s rank %d: dense factorization failed: %v", name, p, err)
			}
			b := make([]float64, m)
			for i := range b {
				b[i] = math.Sin(float64(i + 1))
			}
			xs, xd := make([]float64, m), make([]float64, m)
			f.SolveWith(b, xs, make([]float64, m))
			ch.Solve(b, xd)
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
