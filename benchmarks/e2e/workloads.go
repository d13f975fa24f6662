package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"southwell/internal/dmem"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// workload is one fixed set of inputs. Sizes never change with the time
// budget; only repetition counts do. The Why strings are the reasons
// BENCHMARK.json records (README has the long form).
type workload struct {
	Name   string
	Why    string
	Suite  string // suite matrix name; "" = scaled Poisson2D(Grid, Grid)
	Grid   int
	Ranks  int
	Steps  int
	Local  dmem.LocalSolver
	Target float64
	// Draws is how many right-hand sides an untraced run cycles its solves
	// over (measure.go, draw).
	Draws int
	// PointLoad: b = e_k, x0 = 0 with k chosen by the seed; otherwise the
	// paper's random x0 with b = 0 and ‖r0‖ = 1.
	PointLoad bool
}

var workloads = []workload{
	{
		Name:  "suite256",
		Why:   "Paper Table 2 cell: ~69 rows per rank, >90% of ranks busy each step, so relax and norm kernels dominate; the single-thread baseline.",
		Suite: "Flan_1565", Ranks: 256, Steps: 50, Local: dmem.LocalGS, Target: 0.1, Draws: 8,
	},
	{
		Name:  "wide4k",
		Why:   "~4 rows per rank and ~520k messages in 20 steps: rma delivery, inbox handling and per-rank engine overhead dominate, kernels are negligible.",
		Suite: "Flan_1565", Ranks: 4096, Steps: 20, Local: dmem.LocalGS, Target: 0.3, Draws: 4,
	},
	{
		Name: "pointload2k",
		Why:  "Point load on a 256x256 grid: set-up is ~98% of the run and ~97% of rank-steps are quiescent, so partition/layout and active-set bookkeeping are everything.",
		Grid: 256, Ranks: 2048, Steps: 300, Local: dmem.LocalGS, Target: 0.05, PointLoad: true, Draws: 16,
	},
	{
		Name:  "direct64",
		Why:   "Only workload that enters spdirect: sparse LDLt factorisation in set-up and triangular solves in phase 1; the other three bypass that layer.",
		Suite: "Flan_1565", Ranks: 64, Steps: 50, Local: dmem.LocalDirect, Target: 0.01, Draws: 8,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// workloadTableHash identifies the inputs two reports were taken on: two
// numbers are comparable only if their reports carry the same hash.
func workloadTableHash() string {
	b, err := json.Marshal(workloads)
	if err != nil {
		panic(err) // plain struct of strings and numbers: cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// generate builds the unscaled matrix.
func (w *workload) generate() (*sparse.CSR, error) {
	if w.Suite == "" {
		return problem.Poisson2D(w.Grid, w.Grid), nil
	}
	ent, ok := problem.SuiteByName(w.Suite)
	if !ok {
		return nil, fmt.Errorf("unknown suite matrix %q", w.Suite)
	}
	return ent.Gen(), nil
}

// rhs builds b and x0 for the scaled matrix from the seed.
func (w *workload) rhs(a *sparse.CSR, seed int64) (b, x []float64) {
	if !w.PointLoad {
		return problem.ZeroBSystem(a, seed)
	}
	b = make([]float64, a.N)
	b[w.loadIndex(seed)] = 1
	return b, make([]float64, a.N)
}

// loadIndex places the point load: seed 1 is the grid centre and the other
// seeds walk it over all 65×65 cells of the central block, far enough from
// the boundary that the wavefront never reaches it within the step budget.
func (w *workload) loadIndex(seed int64) int {
	const side = 65
	s := ((seed-1)%(side*side) + side*side) % (side * side)
	q, r := s/side, s%side
	centred := func(d int64) int { // [0, side) → [-side/2, side/2]
		if d > side/2 {
			d -= side
		}
		return int(d)
	}
	ix := w.Grid/2 + centred(7*r%side)
	iy := w.Grid/2 + centred((7*q+11*r)%side)
	return iy*w.Grid + ix
}
