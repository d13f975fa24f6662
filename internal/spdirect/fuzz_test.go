package spdirect_test

import (
	"errors"
	"math"
	"testing"

	"southwell/internal/spdirect"
)

// fuzzBlock decodes a fuzz input into a block with a symmetric pattern.
// data[0] mod 49 is n; each following triple (i, j, v) sets entry (i, j)
// and its mirror (j, i), indices mod n, to fuzzValue(v). Every row holds
// its diagonal (0 unless set) first, then its off-diagonals in the order
// they were first set. Then at, when nonzero, corrupts one index: at > 0
// sets rowPtr[(at−1) mod (n+1)] to to, at < 0 sets col[(−at−1) mod nnz].
func fuzzBlock(data []byte, at int16, to int32) (rowPtr, col []int32, val []float64, dominant []float64) {
	n := 0
	if len(data) > 0 {
		n, data = int(data[0])%49, data[1:]
	}
	a := make([]float64, n*n)
	set := make([]bool, n*n)
	nbrs := make([][]int32, n)
	for ; n > 0 && len(data) >= 3; data = data[3:] {
		i, j, v := int(data[0])%n, int(data[1])%n, fuzzValue(data[2])
		if i != j && !set[i*n+j] {
			set[i*n+j], set[j*n+i] = true, true
			nbrs[i], nbrs[j] = append(nbrs[i], int32(j)), append(nbrs[j], int32(i))
		}
		a[i*n+j], a[j*n+i] = v, v
	}
	// The strictly diagonally dominant variant of the same pattern: finite
	// off-diagonals (non-finite ones become 1) and a diagonal of one more
	// than the row's absolute sum — SPD whatever the decoded values.
	finite := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return v
	}
	rowPtr = make([]int32, n+1)
	for i := range n {
		sum := 1.0
		for _, j := range nbrs[i] {
			sum += math.Abs(finite(a[i*n+int(j)]))
		}
		col, val, dominant = append(col, int32(i)), append(val, a[i*n+i]), append(dominant, sum)
		for _, j := range nbrs[i] {
			v := a[i*n+int(j)]
			col, val, dominant = append(col, j), append(val, v), append(dominant, finite(v))
		}
		rowPtr[i+1] = int32(len(col))
	}
	switch k := int(at); {
	case k > 0:
		rowPtr[(k-1)%len(rowPtr)] = to
	case k < 0 && len(col) > 0:
		col[(-k-1)%len(col)] = to
	}
	return rowPtr, col, val, dominant
}

// fuzzValue maps a byte to an entry: −128 is NaN, 127 is +Inf, any other b
// is b/8.
func fuzzValue(b byte) float64 {
	switch v := int8(b); v {
	case math.MinInt8:
		return math.NaN()
	case math.MaxInt8:
		return math.Inf(1)
	default:
		return float64(v) / 8
	}
}

// wellFormed is the input contract of Factorize, restated: row pointers
// from 0, non-decreasing, within col and val, and every column in [0, n).
func wellFormed(rowPtr, col []int32, val []float64) bool {
	n := len(rowPtr) - 1
	if n < 0 || rowPtr[0] != 0 {
		return false
	}
	for i := range n {
		if rowPtr[i+1] < rowPtr[i] {
			return false
		}
	}
	nnz := int(rowPtr[n])
	if nnz > len(col) || nnz > len(val) {
		return false
	}
	for _, c := range col[:nnz] {
		if c < 0 || int(c) >= n {
			return false
		}
	}
	return true
}

// FuzzFactorize: no input panics; a malformed one is a validation error; a
// well-formed one either factors or fails with ErrNotPositiveDefinite, and
// must fail so when a diagonal entry is not positive (eᵢᵀAeᵢ = aᵢᵢ); and the
// strictly diagonally dominant variant of a symmetric pattern factors and
// solves A x = b to 1e-10 relative residual with a finite x. The seeds are
// the committed corpus in testdata/fuzz/FuzzFactorize.
func FuzzFactorize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, at int16, to int32) {
		rowPtr, col, val, dominant := fuzzBlock(data, at, to)
		n := len(rowPtr) - 1
		_, err := spdirect.Factorize(rowPtr, col, val)
		if !wellFormed(rowPtr, col, val) {
			if err == nil || errors.Is(err, spdirect.ErrNotPositiveDefinite) {
				t.Fatalf("malformed rowPtr %v col %v: got %v", rowPtr, col, err)
			}
			return
		}
		if err != nil && !errors.Is(err, spdirect.ErrNotPositiveDefinite) {
			t.Fatalf("well-formed input: %v", err)
		}
		if at != 0 {
			return // the corruption may have broken symmetry
		}
		for i := range n {
			if d := val[rowPtr[i]]; !(d > 0) && err == nil {
				t.Fatalf("diagonal %d is %g, yet Factorize succeeded", i, d)
			}
		}

		fac, err := spdirect.Factorize(rowPtr, col, dominant)
		if err != nil {
			t.Fatalf("diagonally dominant variant: %v", err)
		}
		b, x := make([]float64, n), make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i + 1))
		}
		fac.SolveWith(b, x, make([]float64, n))
		var rr, bb float64
		for i := range n {
			r := b[i]
			for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
				r -= dominant[p] * x[col[p]]
			}
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				t.Fatalf("x[%d] = %g from finite input", i, x[i])
			}
			rr, bb = rr+r*r, bb+b[i]*b[i]
		}
		if rr > 1e-20*bb {
			t.Fatalf("relative residual %g", math.Sqrt(rr/bb))
		}
	})
}
