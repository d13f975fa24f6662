package bench

import (
	"io"

	"southwell/internal/dmem"
	"southwell/internal/problem"
)

// Ablation runs the design-choice studies listed in DESIGN.md §6 on a few
// suite matrices: Distributed Southwell against (a) a variant without the
// communication-free ghost-layer estimate improvement and (b) variants
// with a slackened explicit-update trigger Γ̃ > (1+τ)·‖r‖. The table shows
// what each mechanism buys: the ghost layer removes wasted relaxations
// (and their solve messages); the exact trigger balances residual-update
// traffic against estimate staleness. A second table ablates the local
// subdomain solver (DESIGN.md §10): one Gauss-Seidel sweep (the paper's
// setting) against the exact sparse-LDLᵀ direct solve, with simulated time
// charged at each solver's real per-solve cost.
func Ablation(w io.Writer, cfg Config) error {
	ranks := cfg.ranks()
	steps := cfg.stepsOr(50)
	names := []string{"Hook_1498", "msdoor", "af_5_k101"}
	if !cfg.Quick {
		names = append(names, "Serena", "ldoor")
	}
	// run is one Distributed Southwell variant on one matrix, off the shared
	// setup of its (matrix, local solver) cell and under the config's fault
	// plan like every suite run.
	run := func(name string, local dmem.LocalSolver, opts dmem.DistSWOptions) (*dmem.Result, error) {
		setup, err := setupFor(name, ranks, cfg.seed(), local)
		if err != nil {
			return nil, err
		}
		b, x := problem.ZeroBSystem(setup.Layout.A, cfg.seed())
		return dmem.DistributedSouthwellOpt(setup, b, x, dmem.Config{Steps: steps, Faults: cfg.Faults}, opts), nil
	}
	variants := []struct {
		label string
		opts  dmem.DistSWOptions
	}{
		{"paper", dmem.DistSWOptions{}},
		{"no-ghost", dmem.DistSWOptions{NoGhostEstimate: true}},
		{"slack-0.1", dmem.DistSWOptions{UpdateSlack: 0.1}},
		{"slack-0.5", dmem.DistSWOptions{UpdateSlack: 0.5}},
	}
	fprintf(w, "# Ablations: Distributed Southwell design choices, %d ranks, %d steps\n", ranks, steps)
	fprintf(w, "%-12s %-10s | %9s %9s %8s %8s | %12s\n",
		"matrix", "variant", "solve/p", "res/p", "relax/n", "active", "final ||r||")
	for _, name := range names {
		for _, v := range variants {
			res, err := run(name, cfg.Local, v.opts)
			if err != nil {
				return err
			}
			fin := res.Final()
			fprintf(w, "%-12s %-10s | %9.2f %9.2f %8.2f %8.3f | %12.5g\n",
				name, v.label,
				float64(res.Stats.SolveMsgs)/float64(ranks),
				float64(res.Stats.ResMsgs)/float64(ranks),
				float64(fin.Relaxations)/float64(res.N),
				res.ActiveFraction, fin.ResNorm)
		}
	}

	locals := []struct {
		label string
		local dmem.LocalSolver
	}{
		{"gs", dmem.LocalGS},
		{"direct", dmem.LocalDirect},
	}
	fprintf(w, "\n# Local-solver ablation: Distributed Southwell, %d ranks, %d steps\n", ranks, steps)
	fprintf(w, "%-12s %-8s | %9s %8s %8s | %12s %12s\n",
		"matrix", "local", "solve/p", "relax/n", "active", "final ||r||", "sim time")
	for _, name := range names {
		for _, lv := range locals {
			res, err := run(name, lv.local, dmem.DistSWOptions{})
			if err != nil {
				return err
			}
			fin := res.Final()
			fprintf(w, "%-12s %-8s | %9.2f %8.2f %8.3f | %12.5g %12.4g\n",
				name, lv.label,
				float64(res.Stats.SolveMsgs)/float64(ranks),
				float64(fin.Relaxations)/float64(res.N),
				res.ActiveFraction, fin.ResNorm, fin.SimTime)
		}
	}
	return nil
}
