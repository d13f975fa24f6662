// Package dense provides small dense linear algebra: a Cholesky
// factorization with triangular solves, which backs the exact coarse-grid
// solve in the multigrid cycle and is the exact reference the sparse local
// solver (internal/spdirect) is tested against on SPD blocks.
package dense

import (
	"errors"
	"math"
)

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewMatrix returns a zero n-by-n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Cholesky is the lower-triangular factor of an SPD matrix: A = L Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the factorization, failing if the matrix is not
// positive definite (within roundoff).
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	n := a.N
	l := NewMatrix(n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, errors.New("dense: matrix not positive definite")
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve computes x with A x = b; x may alias b.
func (c *Cholesky) Solve(b, x []float64) {
	n := c.l.N
	y := make([]float64, n)
	copy(y, b)
	for i := 0; i < n; i++ {
		s := y[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	copy(x, y)
}
