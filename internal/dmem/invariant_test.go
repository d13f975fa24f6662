package dmem

import (
	"math"
	"slices"
	"testing"

	"southwell/internal/problem"
)

// TestDistSWBlockGammaTildeExactness verifies the paper's §3 claim at the
// block level: at every step boundary, a rank's record Γ̃ of "what neighbor
// q estimates my norm to be" equals q's actual estimate Γ of this rank's
// norm, for every edge of the process graph. The crossing-write rule in
// the phase-2/3 receive paths is what keeps this exact; without it the
// invariant fails within a few steps.
func TestDistSWBlockGammaTildeExactness(t *testing.T) {
	a := problem.FEM2D(20, 0.3, 11)
	s, b, x := buildCase(t, a, 13, 11)

	checked := 0
	debugHook = func(states []*rankState) {
		for p, rs := range states {
			for j, q := range rs.nbrs() {
				qs := states[q]
				jp, ok := slices.BinarySearch(qs.nbrs(), int32(p))
				if !ok {
					t.Fatalf("neighbor asymmetry %d-%d", p, q)
				}
				if rs.gammaTilde[j] != qs.gamma[jp] {
					t.Fatalf("Γ̃ exactness violated on edge %d-%d: %.17g vs %.17g",
						p, q, rs.gammaTilde[j], qs.gamma[jp])
				}
				checked++
			}
		}
	}
	defer func() { debugHook = nil }()

	res := DistributedSouthwell(s, b, x, Config{Steps: 30})
	if checked == 0 {
		t.Fatal("hook never ran")
	}
	if res.Final().ResNorm >= 1 {
		t.Error("no progress under invariant checking")
	}
}

// TestDistSWGhostNeverOverestimatesByMuch spot-checks the ghost layer: the
// local residual value of each boundary row, as ghosted by the neighbor,
// matches the owner's actual residual whenever the owner has not relaxed
// since it last wrote (we verify the weaker, always-true property that
// ghosts are finite and the estimate Γ is non-negative).
func TestDistSWGhostSanity(t *testing.T) {
	a := problem.Poisson2D(18, 18)
	s, b, x := buildCase(t, a, 9, 12)
	debugHook = func(states []*rankState) {
		for _, rs := range states {
			for _, z := range rs.z {
				if math.IsNaN(z) || math.IsInf(z, 0) {
					t.Fatal("non-finite ghost value")
				}
			}
			for _, g := range rs.gamma {
				if g < 0 || math.IsNaN(g) {
					t.Fatalf("invalid norm estimate %g", g)
				}
			}
		}
	}
	defer func() { debugHook = nil }()
	DistributedSouthwell(s, b, x, Config{Steps: 20})
}

// TestLocalResidualsExactEveryStep: for every method, at every step
// boundary, the concatenation of local residuals equals b - A x for the
// concatenation of local solutions (communication delivers every delta
// exactly once).
func TestLocalResidualsExactEveryStep(t *testing.T) {
	a := problem.FEM2D(16, 0.3, 13)
	for name, run := range methods() {
		s, b, x := buildCase(t, a.Clone(), 8, 13)
		steps := 0
		debugHook = func(states []*rankState) {
			steps++
			// Gather x and r.
			xg := make([]float64, s.Layout.A.N)
			rg := make([]float64, s.Layout.A.N)
			for p, rs := range states {
				for li, g := range s.Layout.rows(p) {
					xg[g] = rs.x[li]
					rg[g] = rs.r[li]
				}
			}
			want := make([]float64, s.Layout.A.N)
			s.Layout.A.Residual(b, xg, want)
			for i := range want {
				if math.Abs(want[i]-rg[i]) > 1e-9 {
					t.Fatalf("%s: residual drift at row %d: stored %g, true %g",
						name, i, rg[i], want[i])
				}
			}
		}
		run(s, b, x, Config{Steps: 12})
		debugHook = nil
		if steps == 0 {
			t.Fatalf("%s: hook never ran", name)
		}
	}
}

// TestSimTimeMonotone: cumulative simulated time and message counts never
// decrease.
func TestSimTimeMonotone(t *testing.T) {
	a := problem.Poisson2D(16, 16)
	for name, run := range methods() {
		s, b, x := buildCase(t, a.Clone(), 8, 14)
		res := run(s, b, x, Config{Steps: 15})
		for i := 1; i < len(res.History); i++ {
			if res.History[i].SimTime < res.History[i-1].SimTime {
				t.Errorf("%s: sim time decreased at step %d", name, i)
			}
			if res.History[i].TotalMsgs() < res.History[i-1].TotalMsgs() {
				t.Errorf("%s: message count decreased at step %d", name, i)
			}
		}
	}
}
