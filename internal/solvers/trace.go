// Package solvers implements the shared-memory scalar iterative methods of
// the paper: Jacobi, Gauss-Seidel, Multicolor Gauss-Seidel, Sequential
// Southwell, Parallel Southwell, and the scalar form of Distributed
// Southwell (one equation per simulated process, §3 and Figure 5).
//
// All methods assume a symmetric matrix (so row i doubles as column i when
// propagating a relaxation to neighboring residuals) with nonzero diagonal;
// the paper additionally scales systems to unit diagonal, but these
// routines divide by a_ii and work for any symmetric matrix with nonzero
// diagonal.
//
// Every solver maintains the residual vector incrementally and returns a
// Trace: one record per parallel step, carrying the cumulative relaxation
// count and residual norm — exactly the data plotted in Figures 2 and 5 —
// and, for Distributed Southwell, the cumulative message counts.
package solvers

import "southwell/internal/sparse"

// StepRecord is the state at the end of one parallel step.
type StepRecord struct {
	Step        int     // parallel step index, starting at 1
	Relaxations int     // relaxations performed during this step
	CumRelax    int     // total relaxations so far
	ResNorm     float64 // ‖r‖₂ after the step
	// Cumulative messages, split as in Table 3 and dmem.StepStats; only
	// Distributed Southwell sends any.
	SolveMsgs int // writes carrying relaxation updates
	ResMsgs   int // explicit residual updates (deadlock avoidance)
}

// Trace is the convergence history of a solve. For sequential methods
// (Gauss-Seidel, Sequential Southwell) every relaxation is its own parallel
// step; for parallel methods a step may relax many rows.
type Trace struct {
	Method string
	Steps  []StepRecord
}

// Final returns the last record, or a zero record if nothing ran.
func (t *Trace) Final() StepRecord {
	if len(t.Steps) == 0 {
		return StepRecord{}
	}
	return t.Steps[len(t.Steps)-1]
}

// NumSteps returns the number of parallel steps taken.
func (t *Trace) NumSteps() int { return len(t.Steps) }

// RelaxAtNorm returns the smallest cumulative relaxation count at which the
// residual norm fell to target or below, and ok=false if it never did.
func (t *Trace) RelaxAtNorm(target float64) (int, bool) {
	for _, s := range t.Steps {
		if s.ResNorm <= target {
			return s.CumRelax, true
		}
	}
	return 0, false
}

// Options controls solver termination. The zero value means "run one sweep
// (n relaxations) with no target".
type Options struct {
	// MaxRelax stops after this many relaxations (0 = n, one sweep).
	MaxRelax int
	// MaxSteps stops after this many parallel steps (0 = no limit).
	MaxSteps int
	// TargetNorm stops once ‖r‖₂ <= TargetNorm (0 = no target). It is
	// checked before every step, the first included, so a solve that starts
	// at or below its target relaxes nothing and records no step.
	TargetNorm float64
	// ExactBudget makes parallel Southwell-type methods hit MaxRelax
	// exactly: in the final parallel step a random subset of the selected
	// rows is relaxed (§4.1 of the paper, used for multigrid smoothing
	// comparisons). Seed drives the subset choice.
	ExactBudget bool
	Seed        int64
}

func (o Options) maxRelax(n int) int {
	if o.MaxRelax > 0 {
		return o.MaxRelax
	}
	return n
}

// done reports whether the step just recorded spent a budget: relaxations
// or steps. The target is reached's, asked before the next step.
func (o Options) done(rec StepRecord, n int) bool {
	return rec.CumRelax >= o.maxRelax(n) || o.MaxSteps > 0 && rec.Step >= o.MaxSteps
}

// reached reports whether a residual norm meets the target; every scalar
// loop asks it before each step, the first included.
func (o Options) reached(norm float64) bool {
	return o.TargetNorm > 0 && norm <= o.TargetNorm
}

// state carries the vectors every scalar solver updates.
type state struct {
	a      *sparse.CSR
	x, r   []float64
	normSq float64
	relax  int // cumulative relaxations
}

func newState(a *sparse.CSR, b, x []float64) *state {
	s := &state{a: a, x: x, r: make([]float64, a.N)}
	a.Residual(b, x, s.r)
	s.normSq = sparse.SumSquares(s.r)
	return s
}

// relaxRow relaxes row i: x_i += r_i/a_ii and propagates the change to all
// residuals coupled to column i (row i, by symmetry), keeping normSq
// current. It returns the applied update d.
func (s *state) relaxRow(i int) float64 {
	cols, vals := s.a.Row(i)
	var aii float64
	for k, j := range cols {
		if int(j) == i {
			aii = vals[k]
			break
		}
	}
	d := s.r[i] / aii
	s.x[i] += d
	for k, j := range cols {
		old := s.r[j]
		s.r[j] = old - vals[k]*d
		s.normSq += s.r[j]*s.r[j] - old*old
	}
	s.relax++
	return d
}

func (s *state) norm() float64 {
	if s.normSq <= 0 {
		return 0
	}
	return sqrt(s.normSq)
}
