// Package dense provides small dense linear algebra: LU with partial
// pivoting and Cholesky factorization with triangular solves. Cholesky backs
// the exact coarse-grid solve in the multigrid cycle; LU is the reference
// the sparse local solver (internal/spdirect) is tested against.
package dense

import (
	"errors"
	"fmt"
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

// Add increments element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M x.
func (m *Matrix) MulVec(x, y []float64) {
	for i := 0; i < m.N; i++ {
		s := 0.0
		row := m.Data[i*m.N : (i+1)*m.N]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// LU is an LU factorization with partial pivoting: P A = L U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// FactorLU computes the factorization. It fails on (numerically) singular
// matrices.
func FactorLU(a *Matrix) (*LU, error) {
	n := a.N
	f := &LU{lu: a.Clone(), piv: make([]int, n), sign: 1}
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, fmt.Errorf("dense: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -m*lu.At(k, j))
			}
		}
	}
	return f, nil
}

// Solve computes x with A x = b. b is not modified; x may alias b.
func (f *LU) Solve(b, x []float64) {
	f.SolveWith(b, x, make([]float64, f.lu.N))
}

// SolveWith is Solve with a caller-provided scratch vector y (length N),
// so repeated solves against one factorization allocate nothing. y may not
// alias b or x.
func (f *LU) SolveWith(b, x, y []float64) {
	n := f.lu.N
	data := f.lu.Data
	y = y[:n]
	for i, p := range f.piv {
		y[i] = b[p]
	}
	// Forward: L y' = y (unit lower). Each row and the stretch of y it meets
	// are local slices of one length, so the dot product carries no index
	// arithmetic and no bounds check per entry.
	for i := range y {
		row := data[i*n : i*n+i]
		head := y[:len(row)]
		s := y[i]
		for j, l := range row {
			s -= l * head[j]
		}
		y[i] = s
	}
	// Backward: U x = y'.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n+i+1 : (i+1)*n] // right of the diagonal
		tail := y[i+1:][:len(row)]
		s := y[i]
		for j, u := range row {
			s -= u * tail[j]
		}
		y[i] = s / data[i*n+i]
	}
	copy(x, y)
}

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
