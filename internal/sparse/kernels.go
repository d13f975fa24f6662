package sparse

import (
	"fmt"
	"math"
)

// normGrainLen and maxKernBlocks fix the two reductions' grouping:
// SumSquares and ResidualNorm2 sum ⌈n/normGrainLen⌉ blocks of a length-n
// vector (at most maxKernBlocks), so the fused kernel's partial sums match
// SumSquares' exactly. The grouping is a function of the length only.
const (
	normGrainLen  = 16384
	maxKernBlocks = 64
)

// blockSum returns Σ part(lo, hi) over the length-keyed blocks of [0, n),
// summed in ascending block order: the fixed grouping that makes
// ResidualNorm2 and √SumSquares agree bit for bit.
func blockSum(n int, part func(lo, hi int) float64) float64 {
	nb := min(maxKernBlocks, max(1, (n+normGrainLen-1)/normGrainLen))
	sum := 0.0
	for b := range nb {
		sum += part(b*n/nb, (b+1)*n/nb)
	}
	return sum
}

// rowDot returns (A x)_i, accumulated in ascending column order. The row is
// two local slices cut once, so the loop carries one data-dependent bounds
// check (x[c]) and reloads no slice header through a.
func rowDot(a *CSR, x []float64, i int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	cols := a.Col[lo:hi]
	vals := a.Val[lo:hi][:len(cols)]
	sum := 0.0
	for k, c := range cols {
		sum += vals[k] * x[c]
	}
	return sum
}

// MulVec computes y = A*x. y must have length N and may not alias x. It
// runs on the calling goroutine and allocates nothing.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: n=%d len(x)=%d len(y)=%d", a.N, len(x), len(y)))
	}
	for i := range y {
		y[i] = rowDot(a, x, i)
	}
}

// Residual computes r = b - A*x into r (length N) in a single fused pass
// over the matrix. The row product accumulates first and is subtracted
// once, so the result is bit-identical to MulVec followed by an elementwise
// subtraction (a consistent system built via MulVec yields an exactly-zero
// residual). It allocates nothing.
func (a *CSR) Residual(b, x, r []float64) {
	if len(b) != a.N || len(x) != a.N || len(r) != a.N {
		panic(fmt.Sprintf("sparse: Residual dimension mismatch: n=%d len(b)=%d len(x)=%d len(r)=%d", a.N, len(b), len(x), len(r)))
	}
	for i := range r {
		r[i] = b[i] - rowDot(a, x, i)
	}
}

// ResidualNorm2 computes r = b - A*x and returns ‖r‖₂ in one pass over the
// matrix — the fused kernel every solver's convergence check wants, saving
// a second sweep of r. The norm sums the same length-keyed blocks as
// SumSquares, each in ascending i, so the result equals √SumSquares(r)
// after Residual exactly. It allocates nothing.
func (a *CSR) ResidualNorm2(b, x, r []float64) float64 {
	if len(b) != a.N || len(x) != a.N || len(r) != a.N {
		panic(fmt.Sprintf("sparse: ResidualNorm2 dimension mismatch: n=%d len(b)=%d len(x)=%d len(r)=%d", a.N, len(b), len(x), len(r)))
	}
	return math.Sqrt(blockSum(a.N, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			ri := b[i] - rowDot(a, x, i)
			r[i] = ri
			s += ri * ri
		}
		return s
	}))
}

// SumSquares returns Σ x_i², reduced over the same length-keyed blocks as
// ResidualNorm2 with block sums combined in block order: exactly the value
// ResidualNorm2 squares. It allocates nothing.
func SumSquares(x []float64) float64 {
	return blockSum(len(x), func(lo, hi int) float64 {
		s := 0.0
		for _, v := range x[lo:hi] {
			s += v * v
		}
		return s
	})
}
