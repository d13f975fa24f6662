// Package sparse provides compressed sparse row (CSR) matrices, coordinate
// (COO) builders, Matrix Market I/O, and the small set of sparse linear
// algebra kernels needed by the Southwell family of iterative methods:
// sparse matrix-vector products, residual evaluation, symmetric diagonal
// scaling, and graph views of the nonzero structure.
//
// All matrices in this repository are square and, for the iterative methods
// of the paper, symmetric positive definite with unit diagonal after
// scaling (see Scale). CSR stores explicit zeros if they are inserted;
// builders never insert them.
//
// Row pointers and column indices are int32, like every index downstream
// of the matrix (partitioner graph, distributed layout, sparse factor).
// Every constructor refuses a dimension or entry count above MaxIndex
// before it allocates.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxIndex is the largest dimension and the largest entry count a matrix
// may have: its row pointers and column indices are int32.
const MaxIndex = math.MaxInt32

// checkSize reports, as an error, a dimension or entry count that is
// negative or does not fit the matrix's 32-bit indices. Its text has no
// package prefix: Relaxable's callers add their own, the rest "sparse: ".
func checkSize(n, nnz int) error {
	if n < 0 || n > MaxIndex {
		return fmt.Errorf("n = %d outside the 32-bit index range [0, %d]", n, MaxIndex)
	}
	if nnz < 0 || nnz > MaxIndex {
		return fmt.Errorf("nnz = %d outside the 32-bit index range [0, %d]", nnz, MaxIndex)
	}
	return nil
}

// mustFit panics with checkSize's error. The constructors that return no
// error use it: a matrix past 2³¹ entries is a caller's bug there, the way
// a dimension mismatch is.
func mustFit(n, nnz int) {
	if err := checkSize(n, nnz); err != nil {
		panic(fmt.Errorf("sparse: %w", err))
	}
}

// CSR is a square sparse matrix in compressed sparse row format.
// Row i occupies Col[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within a row.
type CSR struct {
	N      int       // matrix dimension (rows == cols), at most MaxIndex
	RowPtr []int32   // length N+1
	Col    []int32   // length nnz, at most MaxIndex
	Val    []float64 // length nnz
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	mustFit(a.N, a.NNZ())
	b := &CSR{
		N:      a.N,
		RowPtr: make([]int32, len(a.RowPtr)),
		Col:    make([]int32, len(a.Col)),
		Val:    make([]float64, len(a.Val)),
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.Col, a.Col)
	copy(b.Val, a.Val)
	return b
}

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage. The caller must not modify the column indices.
func (a *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// At returns the entry (i, j), or zero if it is not stored.
// It runs in O(log nnz(row i)) time.
func (a *CSR) At(i, j int) float64 {
	if j < 0 || j >= a.N {
		return 0
	}
	cols, vals := a.Row(i)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[k]
	}
	return 0
}

// Diag returns a copy of the diagonal of the matrix. Columns within a row
// are sorted, so a linear scan that stops at the first column >= i visits
// only the sub-diagonal entries of each row — no per-row binary search.
func (a *CSR) Diag() []float64 {
	d := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			if j >= i {
				if j == i {
					d[i] = a.Val[k]
				}
				break
			}
		}
	}
	return d
}

// Mirrors checks the one structural property every relaxation here relies
// on: each stored entry (i, j) has a stored mirror (j, i), so row i can be
// read as column i. It walks the rows once, in order, with no transpose.
// The rows holding column j are met in ascending order, which is the column
// order of row j, so one cursor per row, starting at the row's first entry,
// claims its mirrors in turn. A cursor left on an entry whose column the
// walk has passed, or one that does not stand on column i when row i asks,
// marks an entry without a mirror, and the error names it. A walk that ends
// without an error has advanced the cursors nnz times without passing a
// row's end, so every entry was claimed: it needs no end check.
//
// cursor is the walk's scratch, at least n long, overwritten (nil allocates
// it). When mirror is non-nil (nnz long) it receives, for the entry (i, j)
// at position k, the position of (j, i). a must pass Validate: the walk
// relies on in-range, strictly increasing columns.
func (a *CSR) Mirrors(cursor, mirror []int32) error {
	if cursor == nil {
		cursor = make([]int32, a.N)
	}
	return mirrorWalk(a.RowPtr, a.Col, cursor[:a.N], mirror)
}

// mirrorWalk is Mirrors' walk, next being the n cursors. It takes a's
// arrays as slices so the loop holds them in registers: as a method reading
// them through a it ran about a quarter slower.
func mirrorWalk(rowPtr, col, next, mirror []int32) error {
	copy(next, rowPtr) // next[j]: row j's first unclaimed entry
	lo := int32(0)
	for i := range int32(len(next)) {
		hi := rowPtr[i+1]
		for k, j := range col[lo:hi] {
			m := next[j]
			if m >= rowPtr[j+1] || col[m] != i {
				return noMirror(rowPtr, col, i, j, m)
			}
			if mirror != nil {
				mirror[lo+int32(k)] = m
			}
			next[j] = m + 1
		}
		lo = hi
	}
	return nil
}

// noMirror is Mirrors' error when row i, at its entry in column j, finds
// row j's cursor at m not on column i. If the cursor stands on a column the
// walk has passed, that row never claimed it, and the entry there lacks a
// mirror; otherwise (j, i) is absent.
func noMirror(rowPtr, col []int32, i, j, m int32) error {
	if m < rowPtr[j+1] && col[m] < i {
		i, j = j, col[m]
	}
	return fmt.Errorf("entry (%d, %d) has no mirror (%d, %d): the matrix is not structurally symmetric", i, j, j, i)
}

// IsSymmetric reports whether the matrix is structurally symmetric and every
// entry is within absolute tolerance tol of its mirror.
func (a *CSR) IsSymmetric(tol float64) bool {
	mirror := make([]int32, a.NNZ())
	if a.Mirrors(nil, mirror) != nil {
		return false
	}
	for k, m := range mirror {
		if math.Abs(a.Val[k]-a.Val[m]) > tol {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the CSR format: a dimension
// and entry count within MaxIndex, monotone row pointers, in-range and
// strictly increasing column indices, and finite values. It returns a
// descriptive error for the first violation found.
func (a *CSR) Validate() error {
	if err := a.wellFormed(); err != nil {
		return fmt.Errorf("sparse: %w", err)
	}
	return nil
}

// Relaxable is the one check of what every method here needs of A: each
// relaxes row i as x_i += r_i/a_ii and pushes the change down column i as
// if it were row i. So a must be well formed (Validate:
// among the rest, every value finite and a row's columns strictly
// increasing, so no row stores column i twice), each row must hold a
// nonzero diagonal entry, and the pattern must be structurally symmetric
// (Mirrors, whose walk gets cursor, n long, as scratch; nil allocates it).
// The error names the first violation, in that order and rows ascending
// within each. Its text has no package prefix: each caller adds its own.
func (a *CSR) Relaxable(cursor []int32) error {
	if err := a.wellFormed(); err != nil {
		return err
	}
	for i := range a.N {
		cols, vals := a.Row(i)
		k, ok := slices.BinarySearch(cols, int32(i))
		if !ok {
			return fmt.Errorf("row %d has no diagonal entry", i)
		}
		if vals[k] == 0 {
			return fmt.Errorf("row %d has a zero diagonal entry", i)
		}
	}
	return a.Mirrors(cursor, nil)
}

// wellFormed is Validate's walk, its text without the package prefix.
func (a *CSR) wellFormed() error {
	if err := checkSize(a.N, len(a.Col)); err != nil {
		return err
	}
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return errors.New("RowPtr[0] != 0")
	}
	if int(a.RowPtr[a.N]) != len(a.Col) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("nnz mismatch: RowPtr[N]=%d len(Col)=%d len(Val)=%d", a.RowPtr[a.N], len(a.Col), len(a.Val))
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if hi < lo {
			return fmt.Errorf("row %d has negative length", i)
		}
		if int(hi) > len(a.Col) {
			return fmt.Errorf("row %d ends at %d, past nnz = %d", i, hi, len(a.Col))
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			j := a.Col[k]
			if j < 0 || int(j) >= a.N {
				return fmt.Errorf("row %d: column %d out of range", i, j)
			}
			if j <= prev {
				return fmt.Errorf("row %d: columns not strictly increasing at position %d", i, k)
			}
			prev = j
			if math.IsNaN(a.Val[k]) || math.IsInf(a.Val[k], 0) {
				return fmt.Errorf("row %d col %d: non-finite value", i, j)
			}
		}
	}
	return nil
}
