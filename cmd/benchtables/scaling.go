package main

// The paper-scale scaling study (results/scaling.txt): host wall-clock,
// simulated time, message counts, and peak RSS for BJ/PS/DS at
// P ∈ {256, 1024, 4096, 8192} simulated ranks on the neighborhood-epoch
// pool engine, with dense-vs-active host-time columns on the barrier
// engine (every rung audits active against dense for bit-identity); a
// point-load experiment where the active-set engine must deliver its
// headline wall-clock win (the classic Southwell setting — residual zero
// away from the load — drains the active set to a wavefront); and a
// straggler experiment where the neighborhood scheduler must beat the
// global-barrier engine on host wall-clock. Wall-clock and /proc reads are
// deliberately confined to this command: internal/bench is a deterministic
// package (dslint detrand policy) and must stay free of host-time reads.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"southwell/internal/bench"
	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// scalingMethods is the paper's method triple, Table 2 order.
var scalingMethods = []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD}

// runScaling executes the ladder. cfg.Steps overrides the per-run budget
// (default 20 — enough steps for the engines to reach steady state without
// making the 8192-rank rungs dominate CI time); cfg.Quick shrinks the
// ladder and matrix for smoke tests.
func runScaling(w io.Writer, cfg bench.Config) error {
	matName := "Flan_1565"
	ladder := []int{256, 1024, 4096, 8192}
	if cfg.Quick {
		matName = "af_5_k101"
		ladder = []int{16, 64}
	}
	steps := cfg.Steps
	if steps == 0 {
		steps = 20
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ent, ok := problem.SuiteByName(matName)
	if !ok {
		return fmt.Errorf("scaling: unknown suite matrix %q", matName)
	}
	a := ent.Build()

	fmt.Fprintf(w, "# Scaling study: %s (n=%d, nnz=%d), %d steps/run, seed %d\n", matName, a.N, a.NNZ(), steps, seed)
	fmt.Fprintf(w, "# engine: worker-pool; nbr(ms) = neighborhood-epoch scheduler (rma.SchedNeighbor),\n")
	fmt.Fprintf(w, "# dense/active(ms) = barrier engine with -active off/on. Every rung audits all three\n")
	fmt.Fprintf(w, "# runs for bit-identity. Uniform random x0 keeps most ranks relaxing or fielding mail,\n")
	fmt.Fprintf(w, "# so the active set stays nearly full here — see the point-load experiment below for\n")
	fmt.Fprintf(w, "# the regime active-set stepping is built for.\n")
	fmt.Fprintf(w, "# host: GOMAXPROCS=%d; peak RSS is the process high-water mark (VmHWM) after the rung\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%7s  %-6s  %10s  %12s  %10s  %9s  %9s  %10s  %8s  %12s\n",
		"P", "method", "final||r||", "simtime(s)", "msgs", "nbr(ms)", "dense(ms)", "active(ms)", "speedup", "peakRSS(MB)")

	for _, p := range ladder {
		if p >= a.N {
			fmt.Fprintf(w, "%7d  (skipped: P >= n)\n", p)
			continue
		}
		t0 := time.Now()
		part := partition.Partition(a, p, partition.Options{Seed: seed})
		l, err := dmem.NewLayout(a, part, p)
		if err != nil {
			return fmt.Errorf("scaling: P=%d: %w", p, err)
		}
		setup, err := dmem.NewSetup(l, cfg.Local)
		if err != nil {
			return fmt.Errorf("scaling: P=%d: %w", p, err)
		}
		setupMS := time.Since(t0).Seconds() * 1e3
		fmt.Fprintf(w, "%7d  setup: partition+layout+factor %.0f ms\n", p, setupMS)
		for _, m := range scalingMethods {
			b, x := problem.ZeroBSystem(a, seed)
			nbrRes, nbrMS, err := timedRun(a, b, x, setup, m, p, steps, rma.SchedNeighbor, nil, cfg.Local, false)
			if err != nil {
				return err
			}
			denseRes, denseMS, err := timedRun(a, b, x, setup, m, p, steps, rma.SchedBarrier, nil, cfg.Local, true)
			if err != nil {
				return err
			}
			actRes, actMS, err := timedRun(a, b, x, setup, m, p, steps, rma.SchedBarrier, nil, cfg.Local, false)
			if err != nil {
				return err
			}
			// Bit-identity audits, free off the runs already timed: active
			// vs dense stepping, and barrier vs neighborhood scheduling.
			if err := sameResult(actRes, denseRes); err != nil {
				return fmt.Errorf("scaling: P=%d %s: active vs dense stepping diverge: %w", p, m, err)
			}
			if err := sameResult(nbrRes, denseRes); err != nil {
				return fmt.Errorf("scaling: P=%d %s: neighbor vs barrier engines diverge: %w", p, m, err)
			}
			fmt.Fprintf(w, "%7d  %-6s  %10.3e  %12.4f  %10d  %9.1f  %9.1f  %10.1f  %8.2fx  %12s\n",
				p, m, nbrRes.Final().ResNorm, nbrRes.Stats.SimTime, nbrRes.Stats.TotalMsgs(),
				nbrMS, denseMS, actMS, denseMS/actMS, peakRSSMB())
			if s := activeSummary(actRes); s != "" {
				fmt.Fprintf(w, "%7d  %-6s  %s\n", p, m, s)
			}
		}
		fmt.Fprintf(w, "%7d  bit-identity: active=dense=neighbor OK (all methods)\n", p)
	}

	if err := runPointLoad(w, cfg, seed); err != nil {
		return err
	}

	// Straggler margin: a persistently slow rank plus sparse per-(rank,
	// phase) spikes, made real in host time as blocking delays
	// (FaultPlan.HostDelay): a stalled rank parks, it does not burn its
	// core — the honest model for OS noise and I/O hiccups, and the only
	// one whose engine contrast is observable on a small host (a CPU spin
	// is engine-invariant work when cores, not ranks, are the bottleneck).
	// The pool is over-subscribed (FaultPlan.HostWorkers) so a parked rank
	// never deschedules the others, mirroring MPI's process-per-rank
	// execution. The barrier engine fences all P ranks behind every phase's
	// slowest sleeper; the neighborhood scheduler confines each stall to
	// its PSCW groups and pipelines everyone else, so the same
	// bit-identical run finishes measurably sooner.
	fmt.Fprintf(w, "\n# Straggler experiment: rank 0 persistently 3x slow, per-(rank,phase) spike prob 0.02 (x%g),\n", 8.0)
	fmt.Fprintf(w, "# stalls realized as blocking host delays of %.2f ms per unit slowdown (FaultPlan.HostDelay)\n", stallUnit.Seconds()*1e3)
	for _, p := range ladder {
		if p < 1024 && !cfg.Quick {
			continue
		}
		if p >= a.N || (cfg.Quick && p != ladder[len(ladder)-1]) {
			continue
		}
		plan := &rma.FaultPlan{
			Seed:               9,
			Stragglers:         map[int]float64{0: 3},
			StragglerPhaseProb: 0.02,
			HostWorkers:        hostWorkers(p),
			HostDelay: func(rank int, phase int64, mult float64) {
				time.Sleep(time.Duration((mult - 1) * float64(stallUnit)))
			},
		}
		part := partition.Partition(a, p, partition.Options{Seed: seed})
		l, err := dmem.NewLayout(a, part, p)
		if err != nil {
			return fmt.Errorf("scaling: straggler P=%d: %w", p, err)
		}
		setup, err := dmem.NewSetup(l, cfg.Local)
		if err != nil {
			return fmt.Errorf("scaling: straggler P=%d: %w", p, err)
		}
		sb, sx := problem.ZeroBSystem(a, seed)
		barRes, barMS, err := timedRun(a, sb, sx, setup, core.DistSWD, p, steps, rma.SchedBarrier, plan, cfg.Local, false)
		if err != nil {
			return err
		}
		nbrRes, nbrMS, err := timedRun(a, sb, sx, setup, core.DistSWD, p, steps, rma.SchedNeighbor, plan, cfg.Local, false)
		if err != nil {
			return err
		}
		if err := sameResult(nbrRes, barRes); err != nil {
			return fmt.Errorf("scaling: straggler P=%d: engines diverge: %w", p, err)
		}
		fmt.Fprintf(w, "P=%d DS under straggler plan: barrier %.1f ms, neighbor %.1f ms (%.2fx; identical results)\n",
			p, barMS, nbrMS, barMS/nbrMS)
		if wt := nbrRes.SchedWaits; wt != nil {
			fmt.Fprintf(w, "P=%d neighborhood wait tally: %d groups, %d parks, %d blocked-rank events\n",
				p, wt.Groups, wt.Parks, wt.TotalBlocked())
		}
	}
	return nil
}

// stallUnit is the host sleep charged per unit of straggler slowdown in
// the straggler experiment: long enough that stall time (not scheduler
// bookkeeping) dominates the wall clock at paper scale, short enough to
// keep the study inside CI budgets.
const stallUnit = 2 * time.Millisecond

// hostWorkers sizes the over-subscribed pool for the straggler runs: one
// worker per rank up to a cap that keeps goroutine bookkeeping cheap.
func hostWorkers(p int) int {
	const cap = 256
	if p < cap {
		return p
	}
	return cap
}

// timedRun solves one (method, P) cell off a shared setup and returns the
// result plus host milliseconds. Always on the pool engine; sched picks
// the epoch discipline and dense forces dense stepping (the -active=false
// path). b and x are read-only to the solver, so one pair serves every
// run of a cell.
func timedRun(a *sparse.CSR, b, x []float64, setup *dmem.Setup, m core.DistMethod, p, steps int, sched rma.Sched, plan *rma.FaultPlan, local dmem.LocalSolver, dense bool) (*dmem.Result, float64, error) {
	// Collect the previous run's garbage outside the timed region so a
	// major GC from a neighboring rung cannot land inside a short run and
	// distort its wall-clock column.
	runtime.GC()
	t0 := time.Now()
	res, err := core.SolveDistributed(a, b, x, core.DistOptions{
		Method: m, Ranks: p, Steps: steps, Setup: setup,
		Parallel: true, Sched: sched, Local: local, Faults: plan, Dense: dense,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("scaling: %s P=%d: %w", m, p, err)
	}
	return res, time.Since(t0).Seconds() * 1e3, nil
}

// activeSummary renders a run's active-set occupancy ("" for dense runs:
// no engine was engaged, e.g. BJ, which is never quiescent by
// declaration).
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

// runPointLoad is the active-set headline experiment: a point load
// (b = e_k at the grid center, zero initial guess) on a scaled 2-D
// Poisson grid. Away from the load the residual is exactly zero, so ranks
// hold — with no mail and no relaxation — until the relaxation wavefront
// reaches them: the regime Southwell iteration, and the active-set
// engine, are built for. Dense and active stepping are timed on the
// barrier pool engine and audited for bit-identity; the P=8192 DS row is
// the >=5x wall-clock target recorded in results/scaling.txt.
func runPointLoad(w io.Writer, cfg bench.Config, seed int64) error {
	grid, steps := 512, 400
	ladder := []int{1024, 8192}
	if cfg.Quick {
		grid, steps = 64, 50
		ladder = []int{16, 64}
	}
	a := problem.Poisson2D(grid, grid)
	if _, err := sparse.Scale(a); err != nil {
		return fmt.Errorf("scaling: point load: %w", err)
	}
	fmt.Fprintf(w, "\n# Point-load experiment: poisson2d %dx%d scaled (n=%d), b = e_k at the grid center, x0 = 0,\n", grid, grid, a.N)
	fmt.Fprintf(w, "# DS, %d steps/run, barrier pool engine, dense vs active stepping (results audited bit-identical)\n", steps)
	for _, p := range ladder {
		t0 := time.Now()
		part := partition.Partition(a, p, partition.Options{Seed: seed})
		l, err := dmem.NewLayout(a, part, p)
		if err != nil {
			return fmt.Errorf("scaling: point load P=%d: %w", p, err)
		}
		setup, err := dmem.NewSetup(l, cfg.Local)
		if err != nil {
			return fmt.Errorf("scaling: point load P=%d: %w", p, err)
		}
		setupMS := time.Since(t0).Seconds() * 1e3
		b := make([]float64, a.N)
		b[a.N/2+grid/2] = 1
		x := make([]float64, a.N)
		denseRes, denseMS, err := timedRun(a, b, x, setup, core.DistSWD, p, steps, rma.SchedBarrier, nil, cfg.Local, true)
		if err != nil {
			return err
		}
		actRes, actMS, err := timedRun(a, b, x, setup, core.DistSWD, p, steps, rma.SchedBarrier, nil, cfg.Local, false)
		if err != nil {
			return err
		}
		if err := sameResult(actRes, denseRes); err != nil {
			return fmt.Errorf("scaling: point load P=%d: active vs dense stepping diverge: %w", p, err)
		}
		fmt.Fprintf(w, "P=%d DS point load: setup %.0f ms; dense %.1f ms, active %.1f ms (%.2fx; identical results), final||r|| %.3e\n",
			p, setupMS, denseMS, actMS, denseMS/actMS, actRes.Final().ResNorm)
		fmt.Fprintf(w, "P=%d %s\n", p, activeSummary(actRes))
	}
	return nil
}

// sameResult checks bit-identity of two runs: history, stats, solution.
func sameResult(got, want *dmem.Result) error {
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history lengths %d vs %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			return fmt.Errorf("step %d: %+v vs %+v", i, got.History[i], want.History[i])
		}
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("stats: %+v vs %+v", got.Stats, want.Stats)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] { //dslint:ignore floatcmp bit-identity audit: the engines must agree to the last bit by design
			return fmt.Errorf("solution differs at %d", i)
		}
	}
	return nil
}

// peakRSSMB reads the process peak resident set (VmHWM) from /proc.
func peakRSSMB() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.Atoi(f[1]); err == nil {
					return fmt.Sprintf("%.1f", float64(kb)/1024)
				}
			}
		}
	}
	return "n/a"
}
