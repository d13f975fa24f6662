package sparse

import (
	"fmt"
	"math"
)

// Scale symmetrically scales the matrix in place so that it has a unit
// diagonal: A <- D^{-1/2} A D^{-1/2} with D = diag(A). This is the scaling
// used throughout the paper (§2.2, §4.2); under it the Gauss-Southwell rule
// |r_i / a_ii| coincides with the Southwell rule |r_i|.
//
// It returns the scaling vector s with s_i = 1/sqrt(a_ii), so that a system
// A x = b becomes (SAS)(S^{-1}x) = S b. An error naming the row is
// returned, before anything is scaled, if any diagonal entry is missing,
// non-positive, NaN or +Inf (the paper's matrices are SPD): a NaN would
// spread to its whole row and column, and +Inf would give s_i = 0.
func Scale(a *CSR) (s []float64, err error) {
	s = make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		d := a.At(i, i)
		if !(d > 0) || math.IsInf(d, 1) {
			return nil, fmt.Errorf("sparse: Scale: diagonal entry %d is %g, want positive and finite", i, d)
		}
		s[i] = 1 / math.Sqrt(d)
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			a.Val[k] *= s[i] * s[a.Col[k]]
		}
	}
	return s, nil
}
