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

	"southwell/internal/parallel"
)

// MaxIndex is the largest dimension and the largest entry count a matrix
// may have: its row pointers and column indices are int32.
const MaxIndex = math.MaxInt32

// checkSize reports, as an error, a dimension or entry count that is
// negative or does not fit the matrix's 32-bit indices.
func checkSize(n, nnz int) error {
	if n < 0 || n > MaxIndex {
		return fmt.Errorf("sparse: n = %d outside the 32-bit index range [0, %d]", n, MaxIndex)
	}
	if nnz < 0 || nnz > MaxIndex {
		return fmt.Errorf("sparse: nnz = %d outside the 32-bit index range [0, %d]", nnz, MaxIndex)
	}
	return nil
}

// mustFit panics with checkSize's error. The constructors that return no
// error use it: a matrix past 2³¹ entries is a caller's bug there, the way
// a dimension mismatch is.
func mustFit(n, nnz int) {
	if err := checkSize(n, nnz); err != nil {
		panic(err)
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

// Transpose returns the transpose of the matrix, built by a per-shard
// counting sort over NNZ-balanced source-row ranges: each shard counts its
// entries per target row, a sequential pass lays out per-(target row,
// shard) base offsets, and the shards scatter in parallel. Offsets are
// ordered by shard and shards are contiguous source ranges, so entries of a
// target row land in ascending source-row order — exactly the layout of the
// sequential algorithm — for any worker count.
func (a *CSR) Transpose() *CSR {
	n := a.N
	nnz := a.NNZ()
	mustFit(n, nnz)
	ns := parallel.Blocks(nnz, convShardGrain, maxConvShards)
	t := &CSR{
		N:      n,
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, nnz),
		Val:    make([]float64, nnz),
	}
	shards := parallel.SplitNNZ(a.RowPtr, ns, make([]parallel.Range, 0, ns))
	cnt := make([]int32, ns*n)
	runBlocks(ns, func(s int) {
		c := cnt[s*n : (s+1)*n]
		rg := shards[s]
		for k := a.RowPtr[rg.Lo]; k < a.RowPtr[rg.Hi]; k++ {
			c[a.Col[k]]++
		}
	})
	pos := int32(0)
	for j := 0; j < n; j++ {
		t.RowPtr[j] = pos
		for s := 0; s < ns; s++ {
			v := cnt[s*n+j]
			cnt[s*n+j] = pos
			pos += v
		}
	}
	t.RowPtr[n] = pos
	runBlocks(ns, func(s int) {
		off := cnt[s*n : (s+1)*n]
		rg := shards[s]
		for i := rg.Lo; i < rg.Hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.Col[k]
				p := off[j]
				off[j] = p + 1
				t.Col[p] = int32(i)
				t.Val[p] = a.Val[k]
			}
		}
	})
	return t
}

// IsStructurallySymmetric reports whether the nonzero pattern is symmetric.
func (a *CSR) IsStructurallySymmetric() bool {
	t := a.Transpose()
	for i := range a.Col {
		if a.Col[i] != t.Col[i] {
			return false
		}
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether the matrix is numerically symmetric to within
// absolute tolerance tol on every entry.
func (a *CSR) IsSymmetric(tol float64) bool {
	t := a.Transpose()
	if len(t.Col) != len(a.Col) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != t.Col[k] || math.Abs(a.Val[k]-t.Val[k]) > tol {
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
	if err := checkSize(a.N, len(a.Col)); err != nil {
		return err
	}
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return errors.New("sparse: RowPtr[0] != 0")
	}
	if int(a.RowPtr[a.N]) != len(a.Col) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: nnz mismatch: RowPtr[N]=%d len(Col)=%d len(Val)=%d", a.RowPtr[a.N], len(a.Col), len(a.Val))
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if hi < lo {
			return fmt.Errorf("sparse: row %d has negative length", i)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			j := a.Col[k]
			if j < 0 || int(j) >= a.N {
				return fmt.Errorf("sparse: row %d: column %d out of range", i, j)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d: columns not strictly increasing at position %d", i, k)
			}
			prev = j
			if math.IsNaN(a.Val[k]) || math.IsInf(a.Val[k], 0) {
				return fmt.Errorf("sparse: row %d col %d: non-finite value", i, j)
			}
		}
	}
	return nil
}
