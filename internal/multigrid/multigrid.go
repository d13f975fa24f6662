// Package multigrid implements geometric multigrid for the 2D Poisson
// equation on square grids, reproducing the smoothing experiment of the
// paper's §4.1 (Figure 6): V-cycles with one pre- and one post-smoothing
// step, grids from 15×15 up to 255×255 coarsened level by level down to a
// 3×3 grid solved exactly, and pluggable smoothers — Gauss-Seidel or the
// scalar Distributed Southwell method with an exact relaxation budget.
package multigrid

import (
	"fmt"

	"southwell/internal/dense"
	"southwell/internal/problem"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

// Smoother applies a fixed relaxation budget to A x = b, updating x.
type Smoother interface {
	// Smooth relaxes approximately (or exactly, if the smoother supports
	// it) budget rows of the system.
	Smooth(a *sparse.CSR, b, x []float64, budget int)
	// Name identifies the smoother in reports.
	Name() string
}

// GaussSeidel smooths with natural-order Gauss-Seidel sweeps.
type GaussSeidel struct{}

// Name implements Smoother.
func (GaussSeidel) Name() string { return "GS" }

// Smooth implements Smoother. The budget is rounded up to whole rows by
// cycling through the grid in natural order, exactly budget relaxations.
func (GaussSeidel) Smooth(a *sparse.CSR, b, x []float64, budget int) {
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	n := a.N
	for done := 0; done < budget; {
		for i := 0; i < n && done < budget; i++ {
			cols, vals := a.Row(i)
			var aii float64
			for k, j := range cols {
				if int(j) == i {
					aii = vals[k]
					break
				}
			}
			d := r[i] / aii
			x[i] += d
			for k, j := range cols {
				r[j] -= vals[k] * d
			}
			done++
		}
	}
}

// DistSW smooths with the scalar Distributed Southwell method, relaxing
// exactly budget rows (a random subset of the final parallel step's
// selection is used to land on the budget, as in §4.1).
type DistSW struct {
	// SweepFraction scales the budget: 1 matches the caller's budget ("1
	// sweep"), 0.5 is the paper's "1/2 sweep". Zero means 1.
	SweepFraction float64
	// Seed drives the final-step random subset.
	Seed int64
}

// Name implements Smoother.
func (s DistSW) Name() string {
	// Exact sentinel values: 0 (default) and 1 are assigned literals, never
	// computed.
	if s.SweepFraction != 0 && s.SweepFraction != 1 {
		return fmt.Sprintf("Dist SW %g sweep", s.SweepFraction)
	}
	return "Dist SW"
}

// Smooth implements Smoother.
func (s DistSW) Smooth(a *sparse.CSR, b, x []float64, budget int) {
	frac := s.SweepFraction
	if frac == 0 {
		frac = 1
	}
	n := int(float64(budget) * frac)
	if n < 1 {
		n = 1
	}
	solvers.DistributedSouthwell(a, b, x, solvers.Options{
		MaxRelax:    n,
		ExactBudget: true,
		Seed:        s.Seed,
	})
}

// level is one grid in the hierarchy.
type level struct {
	nx int // interior grid dimension (nx × nx unknowns)
	a  *sparse.CSR
	// scratch vectors: b is the restricted right-hand side handed to this
	// level (distinct from r, which the level uses for its own residuals —
	// sharing them would let the residual computation destroy its RHS).
	b, r, e []float64
}

// Hierarchy is a V-cycle solver for the 2D Poisson problem on an nx×nx
// interior grid, nx = 2^k - 1.
type Hierarchy struct {
	levels []*level
	coarse *dense.Cholesky
	smooth Smoother
}

// New builds the hierarchy for an nx×nx interior grid (nx = 2^k - 1 >= 3),
// rediscretizing the 5-point operator on every level down to 3×3, where a
// dense Cholesky factorization provides the exact solve.
func New(nx int, smoother Smoother) (*Hierarchy, error) {
	if nx < 3 || (nx+1)&nx != 0 {
		return nil, fmt.Errorf("multigrid: nx = %d, want 2^k - 1 >= 3", nx)
	}
	h := &Hierarchy{smooth: smoother}
	for d := nx; d >= 3; d = (d - 1) / 2 {
		lv := &level{
			nx: d,
			a:  problem.Poisson2D(d, d),
			b:  make([]float64, d*d),
			r:  make([]float64, d*d),
			e:  make([]float64, d*d),
		}
		h.levels = append(h.levels, lv)
	}
	last := h.levels[len(h.levels)-1]
	dm := dense.NewMatrix(last.a.N)
	for i := 0; i < last.a.N; i++ {
		cols, vals := last.a.Row(i)
		for k, j := range cols {
			dm.Set(i, int(j), vals[k])
		}
	}
	ch, err := dense.FactorCholesky(dm)
	if err != nil {
		return nil, fmt.Errorf("multigrid: coarse solve: %v", err)
	}
	h.coarse = ch
	return h, nil
}

// VCycle performs one V(1,1) cycle on the finest level, updating x.
func (h *Hierarchy) VCycle(b, x []float64) {
	h.cycle(0, b, x)
}

func (h *Hierarchy) cycle(k int, b, x []float64) {
	lv := h.levels[k]
	if k == len(h.levels)-1 {
		h.coarse.Solve(b, x)
		return
	}
	h.smooth.Smooth(lv.a, b, x, lv.a.N) // pre-smoothing: one sweep budget
	lv.a.Residual(b, x, lv.r)
	next := h.levels[k+1]
	restrict(lv.r, lv.nx, next.b, next.nx)
	for i := range next.e {
		next.e[i] = 0
	}
	h.cycle(k+1, next.b, next.e)
	prolongAdd(next.e, next.nx, x, lv.nx)
	h.smooth.Smooth(lv.a, b, x, lv.a.N) // post-smoothing
}

// Solve runs `cycles` V-cycles and returns the relative residual norm
// ‖r‖/‖r⁰‖ after each cycle.
func (h *Hierarchy) Solve(b, x []float64, cycles int) []float64 {
	fine := h.levels[0]
	r0 := fine.a.ResidualNorm2(b, x, fine.r)
	if r0 == 0 {
		return make([]float64, cycles)
	}
	out := make([]float64, 0, cycles)
	for c := 0; c < cycles; c++ {
		h.VCycle(b, x)
		out = append(out, fine.a.ResidualNorm2(b, x, fine.r)/r0)
	}
	return out
}

// restrict applies full weighting from an nf×nf interior grid to the
// nc×nc coarse grid (nf = 2*nc + 1): coarse point (I,J) sits at fine point
// (2I+1, 2J+1), and the stencil is [1 2 1; 2 4 2; 1 2 1]/16 with Dirichlet
// zeros outside.
func restrict(rf []float64, nf int, rc []float64, nc int) {
	at := func(i, j int) float64 {
		if i < 0 || j < 0 || i >= nf || j >= nf {
			return 0
		}
		return rf[j*nf+i]
	}
	for cj := 0; cj < nc; cj++ {
		for ci := 0; ci < nc; ci++ {
			fi, fj := 2*ci+1, 2*cj+1
			v := 4*at(fi, fj) +
				2*(at(fi-1, fj)+at(fi+1, fj)+at(fi, fj-1)+at(fi, fj+1)) +
				at(fi-1, fj-1) + at(fi+1, fj-1) + at(fi-1, fj+1) + at(fi+1, fj+1)
			rc[cj*nc+ci] = v / 16 * 4 // rediscretization scaling: R = P^T/4, times h²-ratio 4
		}
	}
}

// prolongAdd adds the bilinear interpolation of the nc×nc coarse correction
// into the nf×nf fine vector (nf = 2*nc + 1).
func prolongAdd(ec []float64, nc int, xf []float64, nf int) {
	at := func(i, j int) float64 {
		if i < 0 || j < 0 || i >= nc || j >= nc {
			return 0
		}
		return ec[j*nc+i]
	}
	for fj := 0; fj < nf; fj++ {
		for fi := 0; fi < nf; fi++ {
			// Fine point (fi, fj) sits between coarse points; classify by
			// parity. Coarse point (ci,cj) is at fine (2ci+1, 2cj+1).
			oddI := fi%2 == 1
			oddJ := fj%2 == 1
			ci := (fi - 1) / 2
			cj := (fj - 1) / 2
			var v float64
			switch {
			case oddI && oddJ:
				v = at(ci, cj)
			case oddI && !oddJ:
				v = 0.5 * (at(ci, fj/2-1) + at(ci, fj/2))
			case !oddI && oddJ:
				v = 0.5 * (at(fi/2-1, cj) + at(fi/2, cj))
			default:
				v = 0.25 * (at(fi/2-1, fj/2-1) + at(fi/2, fj/2-1) + at(fi/2-1, fj/2) + at(fi/2, fj/2))
			}
			xf[fj*nf+fi] += v
		}
	}
}
