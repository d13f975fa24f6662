package bench

import (
	"io"

	"southwell/internal/core"
	"southwell/internal/dmem"
)

// fig7Matrices are the four problems of Figure 7, chosen by the paper for
// their distinct Block Jacobi behaviours: converges-then-diverges
// (Geo_1438, Hook_1498), never reaches the target (bone010), and never
// diverges (af_5_k101).
func fig7Matrices(quick bool) []string {
	if quick {
		return []string{"Hook_1498", "af_5_k101"}
	}
	return []string{"Geo_1438", "Hook_1498", "bone010", "af_5_k101"}
}

// Fig7 regenerates Figure 7: per-step series of residual norm against
// simulated wall-clock time, communication cost, and parallel step for
// Block Jacobi, Parallel Southwell, and Distributed Southwell on four
// representative problems.
func Fig7(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(50)
	rs, err := runSet(cfg, fig7Matrices(cfg.Quick), tableMethods, []int{ranks}, steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Figure 7: residual norm vs time/comm/step, %d ranks, %d steps\n", ranks, steps)
	fprintf(w, "# matrix method step sim_time comm_cost residual_norm\n")
	for n, name := range fig7Matrices(cfg.Quick) {
		for i, m := range tableMethods {
			for _, h := range rs.at(n, 0, i).History {
				fprintf(w, "%-12s %-3s %3d %10.6f %10.2f %12.5g\n",
					name, methodTag(m), h.Step, h.SimTime,
					float64(h.TotalMsgs())/float64(ranks), h.ResNorm)
			}
		}
	}
	return nil
}

func methodTag(m core.DistMethod) string {
	switch m {
	case core.BlockJacobi:
		return "BJ"
	case core.ParallelSWD:
		return "PS"
	case core.DistSWD:
		return "DS"
	case core.Piggyback2016:
		return "PB"
	}
	return string(m)
}

// scalingRanks is the process-count sweep of Figures 8 and 9 (the paper
// sweeps 32..8192 on matrices 50-100x larger).
func scalingRanks(quick bool) []int {
	if quick {
		return []int{8, 32, 128}
	}
	return []int{8, 16, 32, 64, 128, 256, 512}
}

// fig89Matrices are the six problems of Figures 8 and 9.
func fig89Matrices(quick bool) []string {
	if quick {
		return []string{"msdoor", "af_5_k101"}
	}
	return []string{"Flan_1565", "ldoor", "StocF-1465", "inline_1", "bone010", "Hook_1498"}
}

// Fig8 regenerates Figure 8: simulated wall-clock time to reach ‖r‖ = 0.1
// as a function of the rank count. † marks (matrix, ranks, method) runs
// that never reached the target (usually Block Jacobi divergence).
func Fig8(w io.Writer, cfg Config) error {
	steps := cfg.stepsOr(60)
	rs, err := runSet(cfg, fig89Matrices(cfg.Quick), tableMethods, scalingRanks(cfg.Quick), steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Figure 8: sim wall-clock time to ||r||=%.1f vs ranks (budget %d steps)\n", Target, steps)
	fprintf(w, "%-12s %6s | %10s %10s %10s\n", "matrix", "ranks", "BJ", "PS", "DS")
	for n, name := range fig89Matrices(cfg.Quick) {
		for r, p := range scalingRanks(cfg.Quick) {
			var cells [3]string
			for i := range tableMethods {
				res := rs.at(n, r, i)
				if _, ok := res.StepsToNorm(Target); ok {
					tm, _ := res.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return h.SimTime })
					cells[i] = dagger(tm, true, "%10.5f")
				} else {
					cells[i] = "†"
				}
			}
			fprintf(w, "%-12s %6d | %10s %10s %10s\n", name, p, cells[0], cells[1], cells[2])
		}
	}
	return nil
}

// Fig9 regenerates Figure 9: the residual norm after 50 parallel steps as
// a function of the rank count. Values above 1 indicate divergence; the
// paper's claim is that Block Jacobi degrades (often catastrophically)
// with more ranks while Parallel and Distributed Southwell degrade mildly.
func Fig9(w io.Writer, cfg Config) error {
	steps := cfg.stepsOr(50)
	rs, err := runSet(cfg, fig89Matrices(cfg.Quick), tableMethods, scalingRanks(cfg.Quick), steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Figure 9: residual norm after %d steps vs ranks\n", steps)
	fprintf(w, "%-12s %6s | %12s %12s %12s\n", "matrix", "ranks", "BJ", "PS", "DS")
	for n, name := range fig89Matrices(cfg.Quick) {
		for r, p := range scalingRanks(cfg.Quick) {
			var vals [3]float64
			for i := range tableMethods {
				vals[i] = rs.at(n, r, i).Final().ResNorm
			}
			fprintf(w, "%-12s %6d | %12.5g %12.5g %12.5g\n", name, p, vals[0], vals[1], vals[2])
		}
	}
	return nil
}

// Deadlock is an extra experiment (beyond the paper's tables) documenting
// the §2.4 deadlock claim: the 2016 piggyback-only variant deadlocks on
// the test problems while Distributed Southwell pushes past the same
// point.
func Deadlock(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	rs, err := runSet(cfg, cfg.suiteNames(), []core.DistMethod{core.Piggyback2016}, []int{ranks}, 500)
	if err != nil {
		return err
	}
	fprintf(w, "# Deadlock study: 2016 piggyback variant vs Distributed Southwell, %d ranks\n", ranks)
	fprintf(w, "%-12s | %9s %12s | %12s\n", "matrix", "dl_step", "dl_norm", "DS norm@same")
	for n, name := range cfg.suiteNames() {
		pb := rs.at(n, 0, 0)
		if !pb.Deadlocked {
			fprintf(w, "%-12s | %9s %12.5g | %12s\n", name, "none", pb.Final().ResNorm, "-")
			continue
		}
		ds, err := runSuite(cfg, name, core.DistSWD, ranks, pb.DeadlockStep)
		if err != nil {
			return err
		}
		fprintf(w, "%-12s | %9d %12.5g | %12.5g\n", name, pb.DeadlockStep, pb.Final().ResNorm, ds.Final().ResNorm)
	}
	return nil
}
