// Package spdirect is a deterministic sparse LDLᵀ direct solver for the
// symmetric positive definite diagonal blocks the distributed methods
// relax: the factor-once / solve-many subsystem that plays the role MKL
// PARDISO plays in the paper's artifact (`-loc_solver direct`).
//
// Factorize runs the classical three-stage sparse direct design once:
//
//  1. analysis — a fill-reducing ordering (reverse Cuthill-McKee over the
//     block's adjacency graph), the elimination tree, and the per-column
//     nonzero counts of L, fixing the exact sparsity pattern of the factor
//     before a single numeric value is touched;
//  2. numeric factorization — up-looking (Davis' LDL algorithm): row k of L
//     is computed from the rows reachable in the elimination tree, producing
//     P·A·Pᵀ = L·D·Lᵀ with unit-diagonal L;
//  3. Factor.SolveWith — permuted forward / diagonal / backward triangular
//     solves through a scratch vector the caller owns: solves allocate
//     nothing (gated by TestLDLAllocGate).
//
// A Factor keeps exactly what SolveWith reads — the ordering, L and D. The
// analysis and the numeric scratch are dropped when Factorize returns.
//
// Determinism: every stage is a pure sequential function of the input
// structure and values — the ordering breaks all ties by node id, the
// symbolic pass visits columns in ascending order, and the numeric pass
// accumulates in elimination-tree postorder fixed by the pattern. Two
// factorizations of the same block are bit-identical no matter which
// worker of a pool runs them, which is what lets internal/dmem fan
// per-rank factorizations out over internal/parallel and still produce
// bit-identical results at every pool width.
//
// Concurrency: a Factor is read-only once Factorize returns, so one Factor
// serves any number of concurrent solves as long as each caller owns its
// scratch — dmem shares one factor per rank across every concurrent run of
// a Setup this way.
package spdirect

import (
	"errors"
	"fmt"
)

// ErrNotPositiveDefinite is returned (wrapped, with the failing column)
// when the numeric factorization meets a non-positive pivot: the input was
// not SPD, or so ill-conditioned that roundoff drove a pivot to zero.
var ErrNotPositiveDefinite = errors.New("spdirect: matrix not positive definite")

// Factor is the LDLᵀ factorization of one block: P·A·Pᵀ = L·D·Lᵀ with
// unit-diagonal L, stored as what SolveWith reads and nothing else.
type Factor struct {
	perm []int32 // perm[new] = old: row perm[k] of A is row k of L
	// lp are the column pointers of L's strictly-lower-triangular pattern:
	// column i holds lp[i+1]-lp[i] below-diagonal entries. int, because
	// nnz(L) is the one count int32 input does not bound.
	lp []int
	Li []int32   // row indices of L, by column, ascending within a column
	Lx []float64 // values of L, same layout
	D  []float64 // diagonal of D
}

// SolveFlops returns the flop count of one SolveWith: 2·nnz(L) each for the
// forward and backward sweeps plus n diagonal divisions — the "actual factor
// nnz" cost the α-β-γ model charges per relaxation, replacing the dense 2m²
// estimate.
func (f *Factor) SolveFlops() float64 {
	return 4*float64(len(f.Li)) + float64(len(f.D))
}

// Factorize computes the sparse LDLᵀ factorization of the structurally
// symmetric n×n matrix in CSR form (rowPtr, col, val), n = len(rowPtr)−1.
// Rows need not be sorted. The structure must be symmetric (every (i,j)
// present with (j,i)) — only the upper triangle of the permuted matrix is
// consumed, so an asymmetric structure silently factors the wrong matrix;
// internal/dmem's layout construction guarantees symmetry and validates it.
// Malformed row pointers or columns are an error, and so is a non-positive
// pivot (ErrNotPositiveDefinite).
func Factorize(rowPtr, col []int32, val []float64) (*Factor, error) {
	n := len(rowPtr) - 1
	if n < 0 {
		return nil, errors.New("spdirect: empty rowPtr, want n+1 entries")
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("spdirect: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	for i, p := range rowPtr[1:] {
		if p < rowPtr[i] {
			return nil, fmt.Errorf("spdirect: rowPtr decreases at row %d (%d after %d)", i, p, rowPtr[i])
		}
	}
	nnz := int(rowPtr[n])
	if len(col) < nnz || len(val) < nnz {
		return nil, fmt.Errorf("spdirect: col length %d, val length %d < nnz %d", len(col), len(val), nnz)
	}
	for _, c := range col[:nnz] {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("spdirect: column index %d out of range [0,%d)", c, n)
		}
	}
	return factorize(rowPtr, col, val, rcmPerm(rowPtr, col))
}

// factorize is Factorize of a validated block under the ordering perm
// (perm[new] = old).
func factorize(rowPtr, col []int32, val []float64, perm []int32) (*Factor, error) {
	s := analyze(rowPtr, col, perm)
	f := s.newFactor()
	if k, dk := s.numeric(f, val); k >= 0 {
		return nil, fmt.Errorf("%w (pivot %g at permuted column %d)", ErrNotPositiveDefinite, dk, k)
	}
	return f, nil
}

// symbolic is the structural analysis of one block: the ordering, the
// elimination tree, and the fixed pattern bookkeeping of L. It lives only
// inside factorize; the factor keeps perm and lp.
type symbolic struct {
	perm   []int32
	parent []int // elimination tree of the permuted matrix (-1 = root)
	lp     []int // column pointers of L (Factor.lp)

	// Permuted upper-triangle structure, column-wise with ascending row
	// indices, plus the map from each slot back into the caller's value
	// array — so the numeric pass is a single ordered sweep.
	bp   []int
	bi   []int32
	bmap []int32
}

// analyze computes the elimination tree and the fixed L pattern of a
// validated structure under the ordering perm. Only the structure is read.
func analyze(rowPtr, col, perm []int32) *symbolic {
	n := len(perm)
	s := &symbolic{perm: perm}
	pinv := make([]int, n) // pinv[old] = new
	for k, old := range perm {
		pinv[old] = k
	}

	// Permuted upper triangle, column-wise. Iterating new-row index i0 in
	// ascending order appends each column's rows already sorted — no
	// per-column sort pass.
	s.bp = make([]int, n+1)
	for i0, r := range perm {
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			if j0 := pinv[col[p]]; j0 >= i0 {
				s.bp[j0+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		s.bp[k+1] += s.bp[k]
	}
	s.bi = make([]int32, s.bp[n])
	s.bmap = make([]int32, s.bp[n])
	next := make([]int, n)
	copy(next, s.bp[:n])
	for i0, r := range perm {
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			if j0 := pinv[col[p]]; j0 >= i0 {
				w := next[j0]
				s.bi[w] = int32(i0)
				s.bmap[w] = p
				next[j0] = w + 1
			}
		}
	}

	// Elimination tree and column counts (Liu's algorithm via path
	// compression-free flag walking, as in Davis' LDL): for each column k,
	// walk each upper entry's path to the root, marking and counting.
	s.parent = make([]int, n)
	lnz := make([]int, n)
	flag := next // reuse: next is dead from here on
	for k := 0; k < n; k++ {
		s.parent[k] = -1
		flag[k] = k
		for p := s.bp[k]; p < s.bp[k+1]; p++ {
			i := int(s.bi[p])
			if i == k {
				continue
			}
			for ; flag[i] != k; i = s.parent[i] {
				if s.parent[i] == -1 {
					s.parent[i] = k
				}
				lnz[i]++
				flag[i] = k
			}
		}
	}
	s.lp = make([]int, n+1)
	for i := 0; i < n; i++ {
		s.lp[i+1] = s.lp[i] + lnz[i]
	}
	return s
}

// newFactor allocates the factor of s's pattern, values unset.
func (s *symbolic) newFactor() *Factor {
	nnzL := s.lp[len(s.perm)]
	return &Factor{
		perm: s.perm,
		lp:   s.lp,
		Li:   make([]int32, nnzL),
		Lx:   make([]float64, nnzL),
		D:    make([]float64, len(s.perm)),
	}
}

// numeric fills f's L and D from val (indexed like the analyzed structure)
// by the up-looking algorithm of Davis' LDL: for each row k of L, scatter
// the permuted upper entries of column k into the sparse accumulator, walk
// the elimination tree to assemble the row pattern in topological order,
// then eliminate against each pattern column in turn. It returns the
// permuted column of the first non-positive pivot and that pivot, or -1.
func (s *symbolic) numeric(f *Factor, val []float64) (int, float64) {
	n := len(s.perm)
	// Every operand is a local (DESIGN.md §10, "Kernel form"): a store through
	// y may alias anything the compiler can see, so operands read through f or
	// s would be reloaded, and re-checked, on every nonzero.
	y, pat, flag, next := make([]float64, n), make([]int32, n), make([]int32, n), make([]int, n)
	Li, Lx, D := f.Li, f.Lx, f.D
	Lp, parent := s.lp, s.parent
	bp, bi, bmap := s.bp, s.bi, s.bmap
	for k := 0; k < n; k++ {
		next[k] = Lp[k]
		flag[k] = -1
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = int32(k)
		lo, hi := bp[k], bp[k+1]
		rows := bi[lo:hi]
		src := bmap[lo:hi][:len(rows)]
		for p, r := range rows {
			i := int(r)
			y[i] += val[src[p]]
			// Collect the path from i to the flagged region, then push it
			// reversed onto the pattern stack: the final traversal order is
			// topological (descendants before ancestors).
			plen := 0
			for ; flag[i] != int32(k); i = parent[i] {
				pat[plen] = int32(i)
				plen++
				flag[i] = int32(k)
			}
			for plen > 0 {
				plen--
				top--
				pat[top] = pat[plen]
			}
		}
		dk := y[k]
		y[k] = 0
		for _, c := range pat[top:n] {
			i := int(c)
			yi := y[i]
			y[i] = 0
			p2 := next[i]
			li := Li[Lp[i]:p2]
			lx := Lx[Lp[i]:p2][:len(li)]
			for p, r := range li {
				y[r] -= lx[p] * yi
			}
			lki := yi / D[i]
			dk -= lki * yi
			Li[p2] = int32(k)
			Lx[p2] = lki
			next[i] = p2 + 1
		}
		if !(dk > 0) { // rejects zero, negative, and NaN pivots alike
			return k, dk
		}
		D[k] = dk
	}
	return -1, 0
}

// SolveWith computes x = A⁻¹ b through the factorization: permute into the
// caller's scratch y (length ≥ n), forward solve L, scale by D, backward
// solve Lᵀ, permute back. It only reads the factor, so concurrent solves on
// one Factor are safe as long as each caller owns its y. b is not modified;
// x may alias b. Zero allocations.
func (f *Factor) SolveWith(b, x, y []float64) {
	// Operands are locals cut once per column (DESIGN.md §10, "Kernel form").
	// What may not change: the visit order, the forward zero skip, and one
	// a -= b*c expression per update.
	n := len(f.D)
	perm, Lp := f.perm[:n], f.lp[:n+1]
	Li, Lx, D := f.Li, f.Lx, f.D
	y = y[:n]
	for k, old := range perm {
		y[k] = b[old]
	}
	// Forward: L z = y (unit lower, stored by column: column i updates its
	// below-diagonal rows once y[i] is final).
	for i := 0; i < n; i++ {
		if yi := y[i]; yi != 0 {
			lo, hi := Lp[i], Lp[i+1]
			li := Li[lo:hi]
			lx := Lx[lo:hi][:len(li)]
			for p, r := range li {
				y[r] -= lx[p] * yi
			}
		}
	}
	// Diagonal.
	for k, d := range D {
		y[k] /= d
	}
	// Backward: Lᵀ w = z (column i of L is row i of Lᵀ: gather).
	for i := n - 1; i >= 0; i-- {
		lo, hi := Lp[i], Lp[i+1]
		li := Li[lo:hi]
		lx := Lx[lo:hi][:len(li)]
		yi := y[i]
		for p, r := range li {
			yi -= lx[p] * y[r]
		}
		y[i] = yi
	}
	for k, old := range perm {
		x[old] = y[k]
	}
}
