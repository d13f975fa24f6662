package main

// The paper-scale scaling study (results/scaling.txt): host wall-clock,
// simulated time, message counts, and peak RSS for BJ/PS/DS at
// P ∈ {256, 1024, 4096, 8192} simulated ranks with dense-vs-active
// host-time columns (every rung audits active against dense for
// bit-identity), and a point-load experiment where the active-set engine
// must deliver its headline wall-clock win (the classic Southwell setting —
// residual zero away from the load — drains the active set to a
// wavefront). Wall-clock and /proc reads are deliberately confined to this
// command: internal/bench is a deterministic package (dslint detrand
// policy) and must stay free of host-time reads.

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
	fmt.Fprintf(w, "# rank phases on the shared worker pool; dense/active(ms) = -active off/on. Every rung\n")
	fmt.Fprintf(w, "# audits both runs for bit-identity. Uniform random x0 keeps most ranks relaxing or\n")
	fmt.Fprintf(w, "# fielding mail, so the active set stays nearly full here — see the point-load\n")
	fmt.Fprintf(w, "# experiment below for the regime active-set stepping is built for.\n")
	fmt.Fprintf(w, "# host: GOMAXPROCS=%d; peak RSS is the process high-water mark (VmHWM) after the rung\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%7s  %-6s  %10s  %12s  %10s  %9s  %10s  %8s  %12s\n",
		"P", "method", "final||r||", "simtime(s)", "msgs", "dense(ms)", "active(ms)", "speedup", "peakRSS(MB)")

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
			denseRes, denseMS, err := timedRun(a, b, x, setup, m, p, steps, cfg.Local, true)
			if err != nil {
				return err
			}
			actRes, actMS, err := timedRun(a, b, x, setup, m, p, steps, cfg.Local, false)
			if err != nil {
				return err
			}
			// Bit-identity audit, free off the runs already timed.
			if err := sameResult(actRes, denseRes); err != nil {
				return fmt.Errorf("scaling: P=%d %s: active vs dense stepping diverge: %w", p, m, err)
			}
			fmt.Fprintf(w, "%7d  %-6s  %10.3e  %12.4f  %10d  %9.1f  %10.1f  %8.2fx  %12s\n",
				p, m, denseRes.Final().ResNorm, denseRes.Stats.SimTime, denseRes.Stats.TotalMsgs(),
				denseMS, actMS, denseMS/actMS, peakRSSMB())
			if s := activeSummary(actRes); s != "" {
				fmt.Fprintf(w, "%7d  %-6s  %s\n", p, m, s)
			}
		}
		fmt.Fprintf(w, "%7d  bit-identity: active=dense OK (all methods)\n", p)
	}

	return runPointLoad(w, cfg, seed)
}

// timedRun solves one (method, P) cell off a shared setup and returns the
// result plus host milliseconds. Rank phases always run on the shared
// pool; dense forces dense stepping (the -active=false path). b and x are
// read-only to the solver, so one pair serves every run of a cell.
func timedRun(a *sparse.CSR, b, x []float64, setup *dmem.Setup, m core.DistMethod, p, steps int, local dmem.LocalSolver, dense bool) (*dmem.Result, float64, error) {
	// Collect the previous run's garbage outside the timed region so a
	// major GC from a neighboring rung cannot land inside a short run and
	// distort its wall-clock column.
	runtime.GC()
	t0 := time.Now()
	res, err := core.SolveDistributed(a, b, x, core.DistOptions{
		Method: m, Ranks: p, Steps: steps, Setup: setup,
		Parallel: true, Local: local, Dense: dense,
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
// shared pool and audited for bit-identity; the P=8192 DS row is
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
	fmt.Fprintf(w, "# DS, %d steps/run, shared worker pool, dense vs active stepping (results audited bit-identical)\n", steps)
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
		denseRes, denseMS, err := timedRun(a, b, x, setup, core.DistSWD, p, steps, cfg.Local, true)
		if err != nil {
			return err
		}
		actRes, actMS, err := timedRun(a, b, x, setup, core.DistSWD, p, steps, cfg.Local, false)
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
