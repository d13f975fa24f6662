package bench

import (
	"io"

	"southwell/internal/core"
	"southwell/internal/dmem"
)

// tableMethods are the three methods of Tables 2-4, paper order.
var tableMethods = []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD}

// toTargetStats interpolates a run's cumulative metrics at the moment the
// residual first reaches Target.
type toTargetStats struct {
	ok       bool
	simTime  float64
	commCost float64
	steps    float64
	relaxN   float64
	active   float64
}

func atTarget(res *dmem.Result) toTargetStats {
	st := toTargetStats{}
	steps, ok := res.StepsToNorm(Target)
	if !ok {
		return st
	}
	st.ok = true
	st.steps = steps
	st.simTime, _ = res.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return h.SimTime })
	msgs, _ := res.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return float64(h.TotalMsgs()) })
	st.commCost = msgs / float64(res.P)
	relax, _ := res.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return float64(h.Relaxations) })
	st.relaxN = relax / float64(res.N)
	// Active fraction averaged over the steps up to the crossing.
	whole := int(steps)
	sum := 0.0
	cnt := 0
	for _, h := range res.History[1:] {
		if h.Step > whole {
			break
		}
		sum += float64(h.RelaxedRanks)
		cnt++
	}
	if cnt > 0 {
		st.active = sum / float64(cnt) / float64(res.P)
	}
	return st
}

// Table2 regenerates Table 2: for each suite matrix and each of Block
// Jacobi, Parallel Southwell, Distributed Southwell — simulated wall-clock
// time, communication cost, parallel steps, relaxations/n, and active
// processes, all linearly interpolated (on log10 ‖r‖) at the first crossing
// of ‖r‖₂ = 0.1. † marks runs that never reached the target within the
// step budget.
func Table2(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(60)
	rs, err := runSet(cfg, cfg.suiteNames(), tableMethods, []int{ranks}, steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Table 2: reducing ||r||2 to %.1f with %d simulated ranks, budget %d steps\n", Target, ranks, steps)
	fprintf(w, "%-12s | %27s | %30s | %23s | %20s | %20s\n",
		"Matrix", "Wall-clock time (sim s)", "Communication cost", "Parallel steps", "Relaxations/n", "Active processes")
	fprintf(w, "%-12s | %8s %8s %9s | %9s %9s %9s | %7s %7s %7s | %6s %6s %6s | %6s %6s %6s\n",
		"", "BJ", "PS", "DS", "BJ", "PS", "DS", "BJ", "PS", "DS", "BJ", "PS", "DS", "BJ", "PS", "DS")
	for n, name := range cfg.suiteNames() {
		var st [3]toTargetStats
		for i := range tableMethods {
			st[i] = atTarget(rs.at(n, 0, i))
		}
		fprintf(w, "%-12s | %8s %8s %9s | %9s %9s %9s | %7s %7s %7s | %6s %6s %6s | %6s %6s %6s\n",
			name,
			dagger(st[0].simTime, st[0].ok, "%8.4f"), dagger(st[1].simTime, st[1].ok, "%8.4f"), dagger(st[2].simTime, st[2].ok, "%9.4f"),
			dagger(st[0].commCost, st[0].ok, "%9.2f"), dagger(st[1].commCost, st[1].ok, "%9.2f"), dagger(st[2].commCost, st[2].ok, "%9.2f"),
			dagger(st[0].steps, st[0].ok, "%7.2f"), dagger(st[1].steps, st[1].ok, "%7.2f"), dagger(st[2].steps, st[2].ok, "%7.2f"),
			dagger(st[0].relaxN, st[0].ok, "%6.2f"), dagger(st[1].relaxN, st[1].ok, "%6.2f"), dagger(st[2].relaxN, st[2].ok, "%6.2f"),
			dagger(st[0].active, st[0].ok, "%6.3f"), dagger(st[1].active, st[1].ok, "%6.3f"), dagger(st[2].active, st[2].ok, "%6.3f"))
	}
	return nil
}

// Table3 regenerates Table 3: the communication-cost breakdown (solve
// messages vs explicit residual-update messages, each divided by the rank
// count) for Parallel Southwell and Distributed Southwell at the ‖r‖ = 0.1
// crossing. The paper's headline: "Res comm" dominates PS and is the cost
// DS removes.
func Table3(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(60)
	methods := []core.DistMethod{core.ParallelSWD, core.DistSWD}
	rs, err := runSet(cfg, cfg.suiteNames(), methods, []int{ranks}, steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Table 3: communication breakdown at ||r||2 = %.1f, %d ranks\n", Target, ranks)
	fprintf(w, "%-12s | %21s | %21s\n", "Matrix", "Solve comm", "Res comm")
	fprintf(w, "%-12s | %10s %10s | %10s %10s\n", "", "PS", "DS", "PS", "DS")
	for n, name := range cfg.suiteNames() {
		type split struct {
			ok         bool
			solve, res float64
		}
		var sp [2]split
		for i := range methods {
			r := rs.at(n, 0, i)
			if _, ok := r.StepsToNorm(Target); ok {
				sp[i].ok = true
				s, _ := r.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return float64(h.SolveMsgs) })
				e, _ := r.InterpAtNorm(Target, func(h dmem.StepStats) float64 { return float64(h.ResMsgs) })
				sp[i].solve = s / float64(ranks)
				sp[i].res = e / float64(ranks)
			}
		}
		fprintf(w, "%-12s | %10s %10s | %10s %10s\n", name,
			dagger(sp[0].solve, sp[0].ok, "%10.3f"), dagger(sp[1].solve, sp[1].ok, "%10.3f"),
			dagger(sp[0].res, sp[0].ok, "%10.3f"), dagger(sp[1].res, sp[1].ok, "%10.3f"))
	}
	return nil
}

// Table4 regenerates Table 4: mean per-parallel-step simulated wall-clock
// time and communication cost over a fixed 50-step run, for BJ, PS, DS.
// Expected shape: BJ > PS > DS per step.
func Table4(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(50)
	rs, err := runSet(cfg, cfg.suiteNames(), tableMethods, []int{ranks}, steps)
	if err != nil {
		return err
	}
	fprintf(w, "# Table 4: per-parallel-step means over %d steps, %d ranks\n", steps, ranks)
	fprintf(w, "%-12s | %29s | %27s\n", "Matrix", "Wall-clock time (sim s)", "Communication cost")
	fprintf(w, "%-12s | %9s %9s %9s | %8s %8s %8s\n", "", "BJ", "PS", "DS", "BJ", "PS", "DS")
	for n, name := range cfg.suiteNames() {
		var times, comms [3]float64
		for i := range tableMethods {
			fin := rs.at(n, 0, i).Final()
			nsteps := float64(fin.Step)
			times[i] = fin.SimTime / nsteps
			comms[i] = float64(fin.TotalMsgs()) / float64(ranks) / nsteps
		}
		fprintf(w, "%-12s | %9.6f %9.6f %9.6f | %8.3f %8.3f %8.3f\n",
			name, times[0], times[1], times[2], comms[0], comms[1], comms[2])
	}
	return nil
}
