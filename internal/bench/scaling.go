package bench

import (
	"fmt"
	"io"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// Scaling is the paper-scale study (results/scaling.txt): final residual,
// simulated time and message count of BJ/PS/DS on one suite matrix at
// P ∈ {256, 1024, 4096, 8192} simulated ranks, 20 steps a run unless
// cfg.Steps says otherwise, each with its active-set occupancy, followed by
// the point-load experiment. Everything printed is on the simulated clock;
// the host time and memory of these shapes are measured, with spreads, by
// benchmarks/e2e (BENCHMARK.json: wide4k, pointload2k).
func Scaling(w io.Writer, cfg Config) error {
	name, ladder := "Flan_1565", []int{256, 1024, 4096, 8192}
	if cfg.Quick {
		name, ladder = "af_5_k101", []int{16, 64}
	}
	steps := cfg.stepsOr(20)
	a, err := matrixFor(name)
	if err != nil {
		return err
	}
	rs, err := runSet(cfg, []string{name}, tableMethods, ladder, steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Scaling study: %s (n=%d, nnz=%d), %d steps/run, seed %d\n", name, a.N, a.NNZ(), steps, cfg.seed())
	fprintf(w, "# Uniform random x0 keeps most ranks relaxing or fielding mail, so the active set stays\n")
	fprintf(w, "# nearly full here — see the point-load experiment below for the regime active-set\n")
	fprintf(w, "# stepping is built for. Host time and memory: BENCHMARK.json (wide4k, pointload2k).\n")
	fprintf(w, "%7s  %-6s  %10s  %12s  %10s\n", "P", "method", "final||r||", "simtime(s)", "msgs")
	for r, p := range ladder {
		for i, m := range tableMethods {
			res := rs.at(0, r, i)
			fprintf(w, "%7d  %-6s  %10.3e  %12.4f  %10d\n",
				p, m, res.Final().ResNorm, res.Stats.SimTime, res.Stats.TotalMsgs())
			if s := activeSummary(res); s != "" {
				fprintf(w, "%7d  %-6s  %s\n", p, m, s)
			}
		}
	}
	return pointLoad(w, cfg)
}

// activeSummary renders a run's active-set occupancy ("" for BJ, which is
// never quiescent by declaration, so no rank is ever skipped).
func activeSummary(res *dmem.Result) string {
	if len(res.ActiveHist) == 0 {
		return ""
	}
	sum := 0
	for _, n := range res.ActiveHist {
		sum += n
	}
	mean := float64(sum) / float64(len(res.ActiveHist))
	return fmt.Sprintf("active ranks mean %.1f/%d (%.1f%% of rank-steps skipped)",
		mean, res.P, 100*(1-mean/float64(res.P)))
}

// pointLoad is the experiment active-set stepping is built for: a point
// load (b = e_k at the grid center, zero initial guess) on a scaled 2-D
// Poisson grid. Away from the load the residual is exactly zero, so ranks
// hold — with no mail and no relaxation — until the relaxation wavefront
// reaches them, and nearly every rank-step is skipped. Poisson2D is not a
// suite matrix, so these runs bypass the memo; they see the same options as
// every suite run.
func pointLoad(w io.Writer, cfg Config) error {
	grid, steps, ladder := 512, 400, []int{1024, 8192}
	if cfg.Quick {
		grid, steps, ladder = 64, 50, []int{16, 64}
	}
	a := problem.Poisson2D(grid, grid)
	if _, err := sparse.Scale(a); err != nil {
		return fmt.Errorf("point load: %w", err)
	}
	b := make([]float64, a.N)
	b[a.N/2+grid/2] = 1
	x := make([]float64, a.N)
	fprintf(w, "\n# Point-load experiment: poisson2d %dx%d scaled (n=%d), b = e_k at the grid center, x0 = 0,\n", grid, grid, a.N)
	fprintf(w, "# DS, %d steps/run\n", steps)
	for _, p := range ladder {
		res, err := core.SolveDistributed(a, b, x, cfg.distOptions(core.DistSWD, p, steps))
		if err != nil {
			return fmt.Errorf("point load P=%d: %w", p, err)
		}
		fprintf(w, "P=%d DS point load: final||r|| %.3e, simtime(s) %.4f, msgs %d\n",
			p, res.Final().ResNorm, res.Stats.SimTime, res.Stats.TotalMsgs())
		if s := activeSummary(res); s != "" {
			fprintf(w, "P=%d %s\n", p, s)
		}
	}
	return nil
}
