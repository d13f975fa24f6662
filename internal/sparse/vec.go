package sparse

import "math"

// Norm2 returns the Euclidean norm of x, reduced over the fixed block
// decomposition of SumSquares so the value is bit-identical for any worker
// count and exactly equals what CSR.ResidualNorm2 reports for the same
// vector.
func Norm2(x []float64) float64 {
	// Two-pass scaling is unnecessary here: all residuals in this code are
	// normalized to ‖r⁰‖=1, far from overflow.
	return math.Sqrt(SumSquares(x))
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// NormalizeResidual scales x (when b is zero) or b (when x is zero) in place
// so that the initial residual r = b - A x has unit 2-norm, exactly as the
// paper's driver does (§4.2, artifact appendix). It returns the norm it
// divided by. If the initial residual is exactly zero it returns 0 and
// leaves the vectors untouched.
func NormalizeResidual(a *CSR, b, x []float64) float64 {
	r := make([]float64, a.N)
	nrm := a.ResidualNorm2(b, x, r)
	if nrm == 0 {
		return 0
	}
	inv := 1 / nrm
	for i := range x {
		x[i] *= inv
	}
	for i := range b {
		b[i] *= inv
	}
	return nrm
}
