package solvers

import (
	"southwell/internal/color"
	"southwell/internal/sparse"
)

// Jacobi runs the point Jacobi method. Each parallel step is one sweep of n
// simultaneous relaxations: x += D^{-1} r, r -= A D^{-1} r_old.
func Jacobi(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	n := a.N
	s := newState(a, b, x)
	diag := a.Diag()
	dx := make([]float64, n)
	adx := make([]float64, n)
	return s.run("Jacobi", opt, func() (int, bool) {
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
		return n, false
	})
}

// GaussSeidel runs the Gauss-Seidel method in natural row order. Every
// relaxation is recorded as its own parallel step, since the method is
// sequential (§2.1).
func GaussSeidel(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	s := newState(a, b, x)
	i := 0
	return s.run("GS", opt, func() (int, bool) {
		if a.N == 0 {
			return 0, false
		}
		s.relaxRow(i)
		i = (i + 1) % a.N
		return 1, false
	})
}

// MulticolorGS runs Multicolor Gauss-Seidel: rows are grouped into
// independent color classes (greedy BFS coloring, as in the paper) and one
// parallel step relaxes all rows of a single color.
func MulticolorGS(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	c := color.Greedy(a)
	return multicolorGSWith(a, b, x, c, opt)
}

// multicolorGSWith is MulticolorGS with a caller-provided coloring. A step
// relaxes the next nonempty class, in cyclic order.
func multicolorGSWith(a *sparse.CSR, b, x []float64, c color.Coloring, opt Options) *Trace {
	s := newState(a, b, x)
	classes := c.Classes()
	next := 0
	return s.run("MC GS", opt, func() (int, bool) {
		for range classes {
			class := classes[next]
			next = (next + 1) % len(classes)
			if len(class) > 0 {
				for _, i := range class {
					s.relaxRow(i)
				}
				return len(class), false
			}
		}
		return 0, false
	})
}
