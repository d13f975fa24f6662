package solvers

import (
	"math"

	"southwell/internal/color"
	"southwell/internal/sparse"
)

func sqrt(v float64) float64 { return math.Sqrt(v) }

// Jacobi runs the point Jacobi method. Each parallel step is one sweep of n
// simultaneous relaxations: x += D^{-1} r, r -= A D^{-1} r_old.
func Jacobi(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	tr := &Trace{Method: "Jacobi"}
	n := a.N
	s := newState(a, b, x)
	diag := a.Diag()
	dx := make([]float64, n)
	adx := make([]float64, n)
	for step := 1; !opt.reached(s.norm()); step++ {
		for i := 0; i < n; i++ {
			dx[i] = s.r[i] / diag[i]
			x[i] += dx[i]
		}
		a.MulVec(dx, adx)
		s.normSq = 0
		for i := 0; i < n; i++ {
			s.r[i] -= adx[i]
			s.normSq += s.r[i] * s.r[i]
		}
		s.relax += n
		rec := StepRecord{Step: step, Relaxations: n, CumRelax: s.relax, ResNorm: s.norm()}
		tr.Steps = append(tr.Steps, rec)
		if opt.done(rec, n) {
			return tr
		}
	}
	return tr
}

// GaussSeidel runs the Gauss-Seidel method in natural row order. Every
// relaxation is recorded as its own parallel step, since the method is
// sequential (§2.1).
func GaussSeidel(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	tr := &Trace{Method: "GS"}
	n := a.N
	s := newState(a, b, x)
	for {
		for i := 0; i < n; i++ {
			if opt.reached(s.norm()) {
				return tr
			}
			s.relaxRow(i)
			rec := StepRecord{Step: len(tr.Steps) + 1, Relaxations: 1, CumRelax: s.relax, ResNorm: s.norm()}
			tr.Steps = append(tr.Steps, rec)
			if opt.done(rec, n) {
				return tr
			}
		}
	}
}

// MulticolorGS runs Multicolor Gauss-Seidel: rows are grouped into
// independent color classes (greedy BFS coloring, as in the paper) and one
// parallel step relaxes all rows of a single color.
func MulticolorGS(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	c := color.Greedy(a)
	return MulticolorGSWith(a, b, x, c, opt)
}

// MulticolorGSWith is MulticolorGS with a caller-provided coloring.
func MulticolorGSWith(a *sparse.CSR, b, x []float64, c color.Coloring, opt Options) *Trace {
	tr := &Trace{Method: "MC GS"}
	n := a.N
	s := newState(a, b, x)
	classes := c.Classes()
	for {
		for _, class := range classes {
			if len(class) == 0 {
				continue
			}
			if opt.reached(s.norm()) {
				return tr
			}
			for _, i := range class {
				s.relaxRow(i)
			}
			rec := StepRecord{
				Step:        len(tr.Steps) + 1,
				Relaxations: len(class),
				CumRelax:    s.relax,
				ResNorm:     s.norm(),
			}
			tr.Steps = append(tr.Steps, rec)
			if opt.done(rec, n) {
				return tr
			}
		}
	}
}
