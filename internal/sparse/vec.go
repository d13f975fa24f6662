package sparse

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
