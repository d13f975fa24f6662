package problem

import "southwell/internal/sparse"

// RandomVec returns a deterministic vector of n entries uniformly
// distributed in [-1, 1).
func RandomVec(n int, seed int64) []float64 {
	rng := newRand(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// ZeroBSystem prepares the test setup of the paper's §4.2: a random initial
// guess x, right-hand side b = 0, with x scaled so that ‖r⁰‖₂ = ‖A x‖₂ = 1.
// It returns (b, x).
func ZeroBSystem(a *sparse.CSR, seed int64) (b, x []float64) {
	x = RandomVec(a.N, seed)
	b = make([]float64, a.N)
	sparse.NormalizeResidual(a, b, x)
	return b, x
}

// RandomBSystem prepares the setup of §2.3/§4.1: x = 0 and a random b with
// zero mean, scaled so ‖b‖₂ = 1 (which is also ‖r⁰‖₂ when x = 0).
func RandomBSystem(a *sparse.CSR, seed int64) (b, x []float64) {
	b = RandomVec(a.N, seed)
	// Remove the mean, as in §2.3 ("uniform random distribution with mean
	// zero ... scaled such that its 2-norm is 1").
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	mean /= float64(len(b))
	for i := range b {
		b[i] -= mean
	}
	x = make([]float64, a.N)
	sparse.NormalizeResidual(a, b, x)
	return b, x
}
