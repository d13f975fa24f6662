package main

import (
	"strings"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
)

// mini is a miniature workload for the tests: the whole pipeline in well
// under a second.
var mini = workload{Name: "mini", Grid: 20, Ranks: 8, Steps: 5, Local: dmem.LocalGS, Target: 0.95, Draws: 2}

func TestSmokeUntraced(t *testing.T) {
	p, err := runUntraced(&mini, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Correct || p.Failed != 0 {
		t.Fatalf("mini workload failed: %v", p.Failures)
	}
	// One warm-up and at least minRepsPerDraw timed solves per draw.
	if want := mini.Draws * (1 + minRepsPerDraw); p.Attempted < want {
		t.Errorf("%d operations, want at least %d", p.Attempted, want)
	}
	for _, d := range endToEnd {
		m, ok := p.Metrics[d.Name]
		if !ok || !(m.Value > 0) || m.Unit != d.Unit {
			t.Errorf("%s: %+v", d.Name, m)
		}
	}
	if n := p.Metrics["setup_s"].N; n != setupReps {
		t.Errorf("setup_s over %d reps, want %d", n, setupReps)
	}

	// The deterministic metrics repeat exactly with the seed and move with it.
	again, err := runUntraced(&mini, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	other, err := runUntraced(&mini, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ds_sim_s_to_target", "ds_msgs_to_target", "ds_steps_to_target", "ds_conv_factor"} {
		if p.Metrics[name].Value != again.Metrics[name].Value {
			t.Errorf("%s: %v then %v with the same seed", name, p.Metrics[name].Value, again.Metrics[name].Value)
		}
	}
	if p.Metrics["ds_conv_factor"].Value == other.Metrics["ds_conv_factor"].Value {
		t.Error("seed 2 gave the same convergence factor as seed 1")
	}
}

func TestSmokeTraced(t *testing.T) {
	rec := newSpanRecorder()
	p, err := runTraced(&mini, 1, 0.01, rec, rmaProbe(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Correct || p.Failed != 0 {
		t.Fatalf("mini workload failed: %v", p.Failures)
	}
	for _, d := range perLayer {
		if _, ok := p.Metrics[d.Name]; !ok {
			t.Errorf("%s missing", d.Name)
		}
	}
	if got := p.Metrics["rma.phases"].Value; got != float64(3*mini.Steps) {
		t.Errorf("rma.phases = %v, want three per step", got)
	}

	// Nesting: workload → setup → stages, workload → solve.<variant> → verify.
	byName := map[string]int{}
	for _, s := range rec.spans {
		byName[s.Name]++
		switch {
		case s.Name == "workload":
			if s.Parent != -1 {
				t.Errorf("workload span has parent %d", s.Parent)
			}
		case s.Name == "partition" || s.Name == "layout" || s.Name == "factor":
			if pn := rec.spans[s.Parent].Name; pn != "setup" && pn != "setup_mc" {
				t.Errorf("%s under %s", s.Name, pn)
			}
		case s.Name == "verify" || s.Name == "export":
			if !strings.HasPrefix(rec.spans[s.Parent].Name, "solve.") {
				t.Errorf("%s under %s", s.Name, rec.spans[s.Parent].Name)
			}
		case strings.HasPrefix(s.Name, "solve."):
			if rec.spans[s.Parent].Name != "workload" {
				t.Errorf("%s under %s", s.Name, rec.spans[s.Parent].Name)
			}
			if s.Counts["msgs"] <= 0 || s.Counts["relaxations"] <= 0 {
				t.Errorf("%s carries no counts: %v", s.Name, s.Counts)
			}
		}
	}
	if byName["setup"] != tracedSetupReps || byName["setup_mc"] != tracedSetupReps || byName["partition"] != 2*tracedSetupReps {
		t.Errorf("set-up spans: %v", byName)
	}

	// Interleaving: after the warm-up the variants run in turn, round by
	// round, never one variant's repetitions in a block.
	var order []string
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "solve.") {
			order = append(order, strings.TrimPrefix(s.Name, "solve."))
		}
	}
	if len(order) < (1+minTracedRounds)*len(tracedVariants) || len(order)%len(tracedVariants) != 0 {
		t.Fatalf("%d solves for %d variants", len(order), len(tracedVariants))
	}
	for i, name := range order {
		if want := tracedVariants[i%len(tracedVariants)].name; name != want {
			t.Fatalf("solve %d is %s, want %s: %v", i, name, want, order)
		}
	}
}

func TestCheckResultCatchesCorruption(t *testing.T) {
	setWidth(1)
	inst, _, err := buildInstance(&mini, 1, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.draws[0]
	solve := func() *dmem.Result {
		res, err := core.SolveDistributed(inst.a, in.b, in.x0, core.DistOptions{
			Method: core.DistSWD, Ranks: mini.Ranks, Steps: mini.Steps, Setup: inst.setup, Local: mini.Local,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, res := solve(), solve()
	r := make([]float64, inst.a.N)
	if _, err := checkResult(inst.a, in.b, res, ref, r); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}

	// A wrong X that every engine would agree on: only the oracle sees it.
	res.X[7] += 1e-3
	if _, err := checkResult(inst.a, in.b, res, nil, r); err == nil || !strings.Contains(err.Error(), "true residual") {
		t.Errorf("corrupted X passed the true-residual check: %v", err)
	}
	// Against a reference, the same corruption is also a bit-identity failure.
	if _, err := checkResult(inst.a, in.b, res, ref, r); err == nil || !strings.Contains(err.Error(), "bit-identical") {
		t.Errorf("corrupted X passed the identity check: %v", err)
	}

	res = solve()
	res.History[2].SimTime += 1e-12
	if err := sameResult(res, ref); err == nil {
		t.Error("a changed history entry passed the identity check")
	}
	res = solve()
	res.Deadlocked = true
	if _, err := checkResult(inst.a, in.b, res, ref, r); err == nil {
		t.Error("a deadlocked run passed")
	}
}

func TestLoadIndexStaysCentral(t *testing.T) {
	w, _ := workloadByName("pointload2k")
	if got, want := w.loadIndex(1), (w.Grid/2)*w.Grid+w.Grid/2; got != want {
		t.Errorf("seed 1 puts the load at %d, want the grid centre %d", got, want)
	}
	seen := map[int]bool{}
	for seed := int64(-3); seed < 200; seed++ {
		k := w.loadIndex(seed)
		ix, iy := k%w.Grid, k/w.Grid
		if ix < w.Grid/2-32 || ix > w.Grid/2+32 || iy < w.Grid/2-32 || iy > w.Grid/2+32 {
			t.Fatalf("seed %d: load at (%d,%d) outside the central block", seed, ix, iy)
		}
		seen[k] = true
	}
	if len(seen) < 150 {
		t.Errorf("only %d distinct positions from 203 seeds", len(seen))
	}
}
