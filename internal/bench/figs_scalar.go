package bench

import (
	"io"

	"southwell/internal/core"
	"southwell/internal/problem"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

// fig2Problem returns the small finite element problem of §2.3 (or a
// smaller one in quick mode), scaled to unit diagonal.
func fig2Problem(quick bool) *sparse.CSR {
	var a *sparse.CSR
	if quick {
		a = problem.FEM2D(20, 0.35, 20170713)
	} else {
		a = problem.Fig2FEM()
	}
	if _, err := sparse.Scale(a); err != nil {
		panic("bench: FEM problem not SPD: " + err.Error())
	}
	return a
}

// scalarSeries runs one scalar method for three sweeps on the Figure 2
// problem and returns its trace.
func scalarSeries(a *sparse.CSR, m core.ScalarMethod, seed int64) *solvers.Trace {
	b, x := problem.RandomBSystem(a, seed)
	tr, err := core.SolveScalar(a, b, x, core.ScalarOptions{Method: m, MaxRelax: 3 * a.N})
	if err != nil {
		panic(err)
	}
	return tr
}

// writeSeries prints a downsampled (cumRelax, resNorm) series, one line per
// point, prefixed with the method name — the data behind a convergence
// curve. Parallel-step boundaries are every printed point for parallel
// methods; for sequential methods points are thinned to ~maxPoints.
func writeSeries(w io.Writer, tr *solvers.Trace, maxPoints int) {
	steps := tr.Steps
	stride := 1
	if len(steps) > maxPoints {
		stride = len(steps) / maxPoints
	}
	for i := 0; i < len(steps); i += stride {
		s := steps[i]
		fprintf(w, "%-8s %8d %12.6f\n", tr.Method, s.CumRelax, s.ResNorm)
	}
	if (len(steps)-1)%stride != 0 {
		s := steps[len(steps)-1]
		fprintf(w, "%-8s %8d %12.6f\n", tr.Method, s.CumRelax, s.ResNorm)
	}
}

// Fig2 regenerates Figure 2: convergence (residual norm vs relaxations)
// of Gauss-Seidel, Sequential Southwell, Parallel Southwell, Multicolor
// Gauss-Seidel, and Jacobi on the small finite element problem, three
// sweeps each.
func Fig2(w io.Writer, cfg Config) error {
	a := fig2Problem(cfg.Quick)
	fprintf(w, "# Figure 2: convergence on FEM problem (n=%d), 3 sweeps\n", a.N)
	fprintf(w, "# method  relaxations  residual_norm\n")
	for _, m := range []core.ScalarMethod{core.GaussSeidel, core.SequentialSW, core.ParallelSW, core.MulticolorGS, core.Jacobi} {
		tr := scalarSeries(a, m, cfg.seed())
		writeSeries(w, tr, 40)
	}
	return nil
}

// Fig5 regenerates Figure 5: Figure 2's problem with scalar Distributed
// Southwell added (all methods in scalar form). Its table of steps and
// relaxations at norm 0.6 reads each series at its first record at or
// below 0.6: a run with that target stops there, since both start from
// the same system. A series that never gets there prints its own step
// count, as the targeted run would.
func Fig5(w io.Writer, cfg Config) error {
	a := fig2Problem(cfg.Quick)
	fprintf(w, "# Figure 5: convergence on FEM problem (n=%d) incl. Distributed Southwell\n", a.N)
	fprintf(w, "# method  relaxations  residual_norm\n")
	var traces []*solvers.Trace
	for _, m := range []core.ScalarMethod{core.SequentialSW, core.ParallelSW, core.MulticolorGS, core.DistributedSW} {
		tr := scalarSeries(a, m, cfg.seed())
		writeSeries(w, tr, 40)
		traces = append(traces, tr)
	}
	// Parallel-step counts at the paper's "sweet spot" accuracy.
	fprintf(w, "# steps and relaxations to reach residual norm 0.6:\n")
	for _, tr := range traces {
		rec, ok := tr.AtNorm(0.6)
		if !ok {
			rec.Step = tr.NumSteps()
		}
		fprintf(w, "# %-8s steps=%5d relax=%s\n", tr.Method, rec.Step, dagger(float64(rec.CumRelax), ok, "%6.0f"))
	}
	return nil
}
