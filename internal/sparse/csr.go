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
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"southwell/internal/parallel"
)

// CSR is a square sparse matrix in compressed sparse row format.
// Row i occupies Col[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within a row.
type CSR struct {
	N      int       // matrix dimension (rows == cols)
	RowPtr []int     // length N+1
	Col    []int     // length nnz
	Val    []float64 // length nnz
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		N:      a.N,
		RowPtr: make([]int, len(a.RowPtr)),
		Col:    make([]int, len(a.Col)),
		Val:    make([]float64, len(a.Val)),
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.Col, a.Col)
	copy(b.Val, a.Val)
	return b
}

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage. The caller must not modify the column indices.
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// At returns the entry (i, j), or zero if it is not stored.
// It runs in O(log nnz(row i)) time.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
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
			j := a.Col[k]
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
	ns := parallel.Blocks(nnz, convShardGrain, maxConvShards)
	t := &CSR{
		N:      n,
		RowPtr: make([]int, n+1),
		Col:    make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	shards := parallel.SplitNNZ(a.RowPtr, ns, make([]parallel.Range, 0, ns))
	cnt := make([]int, ns*n)
	runBlocks(ns, func(s int) {
		c := cnt[s*n : (s+1)*n]
		rg := shards[s]
		for k := a.RowPtr[rg.Lo]; k < a.RowPtr[rg.Hi]; k++ {
			c[a.Col[k]]++
		}
	})
	pos := 0
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
				t.Col[p] = i
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

// Validate checks the structural invariants of the CSR format: monotone row
// pointers, in-range and strictly increasing column indices, and finite
// values. It returns a descriptive error for the first violation found.
func (a *CSR) Validate() error {
	if a.N < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return errors.New("sparse: RowPtr[0] != 0")
	}
	if a.RowPtr[a.N] != len(a.Col) || len(a.Col) != len(a.Val) {
		return fmt.Errorf("sparse: nnz mismatch: RowPtr[N]=%d len(Col)=%d len(Val)=%d", a.RowPtr[a.N], len(a.Col), len(a.Val))
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if hi < lo {
			return fmt.Errorf("sparse: row %d has negative length", i)
		}
		prev := -1
		for k := lo; k < hi; k++ {
			j := a.Col[k]
			if j < 0 || j >= a.N {
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

// Neighbors returns the off-diagonal column indices of row i, i.e. the
// neighborhood N_i of the paper, as a freshly allocated slice.
func (a *CSR) Neighbors(i int) []int {
	cols, _ := a.Row(i)
	out := make([]int, 0, len(cols))
	for _, j := range cols {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}
