package solvers

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// testSystem returns a scaled SPD system with random b, zero x.
func testSystem(t *testing.T, a *sparse.CSR, seed int64) (b, x []float64) {
	t.Helper()
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	b, x = problem.RandomBSystem(a, seed)
	return b, x
}

// exactNorm recomputes ‖b - Ax‖₂ from scratch.
func exactNorm(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	return sparse.Norm2(r)
}

type runner func(a *sparse.CSR, b, x []float64, opt Options) *Trace

func allMethods() map[string]runner {
	return map[string]runner{
		"Jacobi": Jacobi,
		"GS":     GaussSeidel,
		"MCGS":   MulticolorGS,
		"SW":     SequentialSouthwell,
		"ParSW":  ParallelSouthwell,
		"DistSW": DistributedSouthwell,
	}
}

// Every method must (a) reduce the residual over 3 sweeps of a Poisson
// problem and (b) report a final trace norm that matches the true residual
// of the x it produced (the incremental-norm invariant).
func TestMethodsReduceResidualAndTrackNormExactly(t *testing.T) {
	for name, run := range allMethods() {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := problem.Poisson2D(20, 20)
			b, x := testSystem(t, a, 1)
			tr := run(a, b, x, Options{MaxRelax: 3 * a.N})
			fin := tr.Final()
			if fin.ResNorm >= 1 {
				t.Errorf("no progress: final norm %g", fin.ResNorm)
			}
			if got := exactNorm(a, b, x); math.Abs(got-fin.ResNorm) > 1e-8 {
				t.Errorf("trace norm %g != exact %g", fin.ResNorm, got)
			}
			if fin.CumRelax < 3*a.N {
				t.Errorf("relaxations %d < requested %d", fin.CumRelax, 3*a.N)
			}
			if sends := fin.SolveMsgs + fin.ResMsgs; (sends > 0) != (name == "DistSW") {
				t.Errorf("%d messages counted: only Distributed Southwell sends any", sends)
			}
		})
	}
}

func TestGaussSeidelBeatsJacobiPerRelaxation(t *testing.T) {
	a := problem.Poisson2D(25, 25)
	b, x1 := testSystem(t, a, 2)
	x2 := append([]float64(nil), x1...)
	gs := GaussSeidel(a, b, x1, Options{MaxRelax: 2 * a.N})
	ja := Jacobi(a, b, x2, Options{MaxRelax: 2 * a.N})
	if gs.Final().ResNorm >= ja.Final().ResNorm {
		t.Errorf("GS %g should beat Jacobi %g", gs.Final().ResNorm, ja.Final().ResNorm)
	}
}

// Figure 2 shape: Sequential Southwell needs notably fewer relaxations than
// Gauss-Seidel to reach low accuracy (the paper reports about half at 0.6).
func TestSouthwellBeatsGSAtLowAccuracy(t *testing.T) {
	a := problem.Fig2FEM()
	b, x1 := testSystem(t, a, 3)
	x2 := append([]float64(nil), x1...)
	sw := SequentialSouthwell(a, b, x1, Options{MaxRelax: 3 * a.N, TargetNorm: 0.6})
	gs := GaussSeidel(a, b, x2, Options{MaxRelax: 3 * a.N, TargetNorm: 0.6})
	swRelax, ok1 := sw.RelaxAtNorm(0.6)
	gsRelax, ok2 := gs.RelaxAtNorm(0.6)
	if !ok1 || !ok2 {
		t.Fatalf("targets not reached: sw=%v gs=%v", ok1, ok2)
	}
	if float64(swRelax) > 0.75*float64(gsRelax) {
		t.Errorf("SW took %d relaxations vs GS %d; want clear win", swRelax, gsRelax)
	}
}

// Parallel Southwell relaxes an independent set whose convergence per
// relaxation stays close to Sequential Southwell (Figure 2).
func TestParallelSouthwellTracksSequential(t *testing.T) {
	a := problem.Fig2FEM()
	b, x1 := testSystem(t, a, 4)
	x2 := append([]float64(nil), x1...)
	ps := ParallelSouthwell(a, b, x1, Options{MaxRelax: a.N})
	sw := SequentialSouthwell(a, b, x2, Options{MaxRelax: a.N})
	// At the same relaxation budget, ParSW should be within 25% of SW's
	// residual reduction (log scale would be stricter; this is the paper's
	// qualitative claim).
	if ps.Final().ResNorm > sw.Final().ResNorm*1.35 {
		t.Errorf("ParSW %g too far behind SW %g", ps.Final().ResNorm, sw.Final().ResNorm)
	}
	// And it must use far fewer parallel steps than relaxations.
	if ps.NumSteps() >= ps.Final().CumRelax/2 {
		t.Errorf("ParSW parallelism too low: %d steps for %d relaxations",
			ps.NumSteps(), ps.Final().CumRelax)
	}
}

func TestParallelSouthwellRelaxedSetIndependent(t *testing.T) {
	// Re-run the selection logic externally: after one step, every relaxed
	// row's residual must be exactly zero unless a neighbor also relaxed —
	// and with exact residuals the selected set is independent, so all
	// relaxed rows must have r == 0 after step 1.
	a := problem.FEM2D(15, 0.3, 5)
	b, x := testSystem(t, a, 5)
	tr := ParallelSouthwell(a, b, x, Options{MaxSteps: 1, MaxRelax: a.N})
	if tr.NumSteps() != 1 {
		t.Fatalf("steps = %d", tr.NumSteps())
	}
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	zeroCount := 0
	for _, v := range r {
		if v == 0 {
			zeroCount++
		}
	}
	if zeroCount < tr.Final().Relaxations {
		t.Errorf("only %d exactly-zero residuals after relaxing %d independent rows",
			zeroCount, tr.Final().Relaxations)
	}
}

// TestDistSWGammaTildeInvariant checks the paper's §3 claim that Γ̃ is
// exactly known, bit for bit, after every step: for every edge (i, j), row
// i's record of "what j estimates my residual to be" equals |z| on j's side
// of the edge, j's actual estimate.
func TestDistSWGammaTildeInvariant(t *testing.T) {
	a := problem.FEM2D(12, 0.35, 6)
	b, x := testSystem(t, a, 6)
	d := newDistSW(a, b, x, Options{})
	for step := 1; d.relax < 4*a.N; step++ {
		if d.step() == 0 {
			t.Fatalf("step %d relaxed nothing", step)
		}
		for i := range int32(a.N) {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if a.Col[k] != i && d.gt[k] != math.Abs(d.z[d.mirror[k]]) {
					t.Fatalf("step %d, edge (%d, %d): Γ̃ %.17g, neighbour's estimate %.17g",
						step, i, a.Col[k], d.gt[k], d.z[d.mirror[k]])
				}
			}
		}
	}
	if d.norm() >= 1 {
		t.Error("no progress under invariant checking")
	}
}

// TestDistSWMirrors: mirror pairs every stored entry with its transpose,
// and a missing transpose panics with the entry's name.
func TestDistSWMirrors(t *testing.T) {
	a := problem.FEM2D(6, 0.3, 3)
	m := mirrors(a)
	for i := range int32(a.N) {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			if mk := m[k]; mk < a.RowPtr[j] || mk >= a.RowPtr[j+1] || a.Col[mk] != i || m[mk] != k {
				t.Fatalf("entry (%d, %d) at %d: mirror %d", i, j, k, mk)
			}
		}
	}
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		// (0, 2) has no (2, 0).
		{"above", &sparse.CSR{N: 3, RowPtr: []int32{0, 2, 3, 4}, Col: []int32{0, 2, 1, 2}, Val: []float64{1, 1, 1, 1}}, "entry (0, 2)"},
		// (2, 0) has no (0, 2): row 0 has no entry left for it.
		{"below", &sparse.CSR{N: 3, RowPtr: []int32{0, 1, 2, 4}, Col: []int32{0, 1, 0, 2}, Val: []float64{1, 1, 1, 1}}, "entry (2, 0)"},
		// (0, 1) has no (1, 0).
		{"right", &sparse.CSR{N: 3, RowPtr: []int32{0, 3, 4, 6}, Col: []int32{0, 1, 2, 1, 0, 2}, Val: []float64{1, 1, 1, 1, 1, 1}}, "entry (0, 1)"},
		// (2, 0) has no (0, 2): row 1 finds row 2's cursor stuck on it.
		{"unclaimed", &sparse.CSR{N: 3, RowPtr: []int32{0, 1, 3, 6}, Col: []int32{0, 1, 2, 0, 1, 2}, Val: []float64{1, 1, 1, 1, 1, 1}}, "entry (2, 0)"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %s", c.name, msg, c.want)
				}
			}()
			mirrors(c.a)
		}()
	}
}

// Figure 5 shape: Distributed Southwell closely matches Parallel Southwell
// down to low accuracy (residual 0.6), using estimated residuals.
func TestDistSWTracksParSWAtLowAccuracy(t *testing.T) {
	a := problem.Fig2FEM()
	b, x1 := testSystem(t, a, 7)
	x2 := append([]float64(nil), x1...)
	ds := DistributedSouthwell(a, b, x1, Options{MaxRelax: 3 * a.N, TargetNorm: 0.6})
	ps := ParallelSouthwell(a, b, x2, Options{MaxRelax: 3 * a.N, TargetNorm: 0.6})
	dsRelax, ok1 := ds.RelaxAtNorm(0.6)
	psRelax, ok2 := ps.RelaxAtNorm(0.6)
	if !ok1 || !ok2 {
		t.Fatalf("targets not reached: ds=%v ps=%v", ok1, ok2)
	}
	if float64(dsRelax) > 1.4*float64(psRelax) {
		t.Errorf("DistSW %d relaxations vs ParSW %d at norm 0.6", dsRelax, psRelax)
	}
}

// Distributed Southwell relaxes more rows per parallel step than Parallel
// Southwell (paper §3: inexact estimates admit more simultaneous work).
func TestDistSWMoreActiveThanParSW(t *testing.T) {
	a := problem.Fig2FEM()
	b, x1 := testSystem(t, a, 8)
	x2 := append([]float64(nil), x1...)
	ds := DistributedSouthwell(a, b, x1, Options{MaxRelax: 2 * a.N})
	ps := ParallelSouthwell(a, b, x2, Options{MaxRelax: 2 * a.N})
	dsPerStep := float64(ds.Final().CumRelax) / float64(ds.NumSteps())
	psPerStep := float64(ps.Final().CumRelax) / float64(ps.NumSteps())
	if dsPerStep <= psPerStep {
		t.Errorf("DistSW %f relax/step should exceed ParSW %f", dsPerStep, psPerStep)
	}
}

func TestDistSWNoDeadlock(t *testing.T) {
	// Run to a tight target; the deadlock-avoidance mechanism must keep the
	// method progressing (the 2016 variant stalls here).
	a := problem.Poisson2D(12, 12)
	b, x := testSystem(t, a, 9)
	tr := DistributedSouthwell(a, b, x, Options{MaxRelax: 200 * a.N, TargetNorm: 1e-6})
	if tr.Final().ResNorm > 1e-6 {
		t.Fatalf("did not reach 1e-6: %g after %d relaxations", tr.Final().ResNorm, tr.Final().CumRelax)
	}
	if tr.Final().SolveMsgs == 0 {
		t.Error("no solve messages counted")
	}
}

func TestDistSWCommLowerThanParSWExplicit(t *testing.T) {
	// The point of the method: fewer residual-update messages than the
	// "always update neighbors" policy would send. ParSW in the scalar
	// simulator does not count messages, so compare DS residual messages
	// against the bound ParSW would pay: every norm change broadcast to all
	// neighbors. DS must be well under nnz-per-sweep scale.
	a := problem.Fig2FEM()
	b, x := testSystem(t, a, 10)
	fin := DistributedSouthwell(a, b, x, Options{MaxRelax: 2 * a.N}).Final()
	if fin.ResMsgs >= fin.SolveMsgs {
		t.Errorf("residual msgs %d should be below solve msgs %d (paper Table 3 shape)",
			fin.ResMsgs, fin.SolveMsgs)
	}
}

func TestMulticolorGSStepsMatchColors(t *testing.T) {
	a := problem.Fig2FEM()
	b, x := testSystem(t, a, 11)
	tr := MulticolorGS(a, b, x, Options{MaxRelax: a.N})
	// One sweep = NumColors parallel steps.
	if tr.NumSteps() < 3 || tr.NumSteps() > 9 {
		t.Errorf("steps per sweep = %d, want the color count (3..9)", tr.NumSteps())
	}
	if tr.Final().CumRelax < a.N {
		t.Errorf("sweep incomplete: %d of %d", tr.Final().CumRelax, a.N)
	}
}

func TestTargetNormStopsEarly(t *testing.T) {
	a := problem.Poisson2D(15, 15)
	b, x := testSystem(t, a, 12)
	tr := GaussSeidel(a, b, x, Options{MaxRelax: 100 * a.N, TargetNorm: 0.5})
	if tr.Final().ResNorm > 0.5 {
		t.Error("target not reached")
	}
	if tr.Final().CumRelax >= 100*a.N {
		t.Error("did not stop early")
	}
}

// TestStartAtTargetRunsNoStep: every scalar method checks its target before
// each step, the first included — a solve whose initial residual already
// meets TargetNorm records no step and leaves x as it was, and one that
// starts above it stops at the first step that meets it.
func TestStartAtTargetRunsNoStep(t *testing.T) {
	for name, run := range allMethods() {
		a := problem.Poisson2D(10, 10)
		b, x := testSystem(t, a, 1)
		x0 := append([]float64(nil), x...)
		if tr := run(a, b, x, Options{MaxRelax: 5 * a.N, TargetNorm: 1e300}); tr.NumSteps() != 0 {
			t.Errorf("%s: %d steps from a start at the target, want 0", name, tr.NumSteps())
		}
		for i := range x0 {
			if math.Float64bits(x[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("%s: x[%d] moved from %g to %g", name, i, x0[i], x[i])
			}
		}
		target := 0.5 * exactNorm(a, b, x)
		tr := run(a, b, x, Options{MaxRelax: 50 * a.N, TargetNorm: target})
		for k, rec := range tr.Steps {
			if last := k == len(tr.Steps)-1; last != (rec.ResNorm <= target) {
				t.Errorf("%s: step %d of %d has norm %g against target %g", name, rec.Step, len(tr.Steps), rec.ResNorm, target)
			}
		}
	}
}

func TestSequentialSouthwellAlwaysRelaxesMax(t *testing.T) {
	a := problem.Poisson2D(8, 8)
	b, x := testSystem(t, a, 13)
	// After each relaxation, the relaxed row's residual is zero; we verify
	// monotone residual decrease in the A-norm sense is not required, but
	// the max-residual row choice means ‖r‖∞ never grows from relaxing it
	// alone on a unit-diagonal M-matrix Poisson problem.
	tr := SequentialSouthwell(a, b, x, Options{MaxRelax: 5 * a.N})
	if tr.Final().ResNorm >= 0.9 {
		t.Errorf("SW stalled: %g", tr.Final().ResNorm)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{}
	if tr.Final() != (StepRecord{}) {
		t.Error("empty Final not zero")
	}
	if _, ok := tr.RelaxAtNorm(0.5); ok {
		t.Error("empty RelaxAtNorm should fail")
	}
	tr.Steps = append(tr.Steps, StepRecord{Step: 1, Relaxations: 3, CumRelax: 3, ResNorm: 0.4})
	if got, ok := tr.RelaxAtNorm(0.5); !ok || got != 3 {
		t.Errorf("RelaxAtNorm = %d, %v", got, ok)
	}
}

// Property: on random SPD FEM problems, every method's trace norm matches
// the true residual of the solution vector it leaves behind.
func TestQuickTraceNormMatchesTrueResidual(t *testing.T) {
	methods := allMethods()
	f := func(seed int64) bool {
		m := 6 + int(seed%8+8)%8
		a := problem.FEM2D(m, 0.3, seed)
		if _, err := sparse.Scale(a); err != nil {
			return false
		}
		for _, run := range methods {
			b, x := problem.RandomBSystem(a, seed)
			tr := run(a, b, x, Options{MaxRelax: 2 * a.N})
			if math.Abs(exactNorm(a, b, x)-tr.Final().ResNorm) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
