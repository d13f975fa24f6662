// Package spdirect is a deterministic sparse LDLᵀ direct solver for the
// symmetric positive definite diagonal blocks the distributed methods
// relax: the factor-once / solve-many subsystem that plays the role MKL
// PARDISO plays in the paper's artifact (`-loc_solver direct`).
//
// The pipeline is the classical three-stage sparse direct design:
//
//  1. Analyze — a fill-reducing ordering (reverse Cuthill-McKee over the
//     block's adjacency graph), the elimination tree, and the
//     per-column nonzero counts of L, fixing the exact sparsity pattern of
//     the factor before a single numeric value is touched.
//  2. Symbolic.Factorize / Factor.Refactor — an up-looking numeric
//     factorization (Davis' LDL algorithm): row k of L is computed from
//     the rows reachable in the elimination tree, producing A = L·D·Lᵀ
//     with unit-diagonal L. Refactor reuses the symbolic pattern and every
//     numeric buffer, so re-factoring a block with new values allocates
//     nothing.
//  3. Factor.SolveWith — permuted forward / diagonal / backward triangular
//     solves through a scratch vector the caller owns: steady-state solves
//     allocate nothing (gated by TestLDLAllocGate).
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
// Concurrency: SolveWith only reads a Factor, so one Factor serves any
// number of concurrent solves as long as each caller owns its scratch —
// dmem shares one factor per rank across every concurrent run of a Setup
// this way. Refactor writes the factor and its numeric scratch, so it must
// not overlap any other call on the same Factor.
package spdirect

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned (wrapped, with the failing column)
// when the numeric factorization meets a non-positive pivot: the input was
// not SPD, or so ill-conditioned that roundoff drove a pivot to zero.
var ErrNotPositiveDefinite = errors.New("spdirect: matrix not positive definite")

// Symbolic is the reusable structural analysis of one block: the
// permutation, the elimination tree, and the fixed pattern bookkeeping of
// L. One Symbolic can serve any number of Factorize calls with different
// values on the same structure.
type Symbolic struct {
	N    int
	Perm []int // Perm[new] = old: row Perm[k] of A becomes row k
	Pinv []int // Pinv[old] = new

	// Parent is the elimination tree of the permuted matrix (-1 = root).
	Parent []int
	// Lp are column pointers of L's strictly-lower-triangular pattern:
	// column i of L holds Lp[i+1]-Lp[i] below-diagonal entries. Fixed by
	// Analyze; numeric passes fill values into exactly these slots.
	Lp []int

	// Permuted upper-triangle structure, column-wise with ascending row
	// indices, plus the map from each slot back into the caller's value
	// array — built once so every numeric pass is a single ordered sweep.
	bp   []int
	bi   []int32
	bmap []int32
	nnzA int // entry count of the analyzed structure (= rowPtr[n])
}

// NNZL returns the number of strictly-below-diagonal nonzeros of L.
func (s *Symbolic) NNZL() int { return s.Lp[s.N] }

// SolveFlops returns the flop count of one SolveWith with this pattern:
// 2·nnz(L) each for the forward and backward sweeps plus n diagonal
// divisions — the "actual factor nnz" cost the α-β-γ model charges per
// relaxation, replacing the dense 2m² estimate.
func (s *Symbolic) SolveFlops() float64 {
	return 4*float64(s.NNZL()) + float64(s.N)
}

// Analyze computes the reverse Cuthill-McKee ordering, elimination tree, and
// fixed L pattern for a structurally symmetric n×n sparse matrix in CSR
// form. Only the structure is read; values flow in later through
// Factorize/Refactor, indexed by the same entry positions. Rows need not be
// sorted. The structure must be symmetric (every (i,j) present with (j,i))
// — only the upper triangle of the permuted matrix is consumed, so an
// asymmetric structure silently factors the wrong matrix; internal/dmem's
// layout construction guarantees symmetry and validates it.
func Analyze(n int, rowPtr, col []int) (*Symbolic, error) {
	if n < 0 || len(rowPtr) != n+1 {
		return nil, fmt.Errorf("spdirect: rowPtr length %d, want n+1 = %d", len(rowPtr), n+1)
	}
	nnz := rowPtr[n]
	if len(col) < nnz {
		return nil, fmt.Errorf("spdirect: col length %d < nnz %d", len(col), nnz)
	}
	if int64(n) > math.MaxInt32 || int64(nnz) > math.MaxInt32 {
		return nil, fmt.Errorf("spdirect: block too large for int32 indexing (n=%d, nnz=%d)", n, nnz)
	}
	for _, c := range col[:nnz] {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("spdirect: column index %d out of range [0,%d)", c, n)
		}
	}
	return analyze(n, rowPtr, col, rcmPerm(n, rowPtr, col)), nil
}

// analyze is Analyze of a validated structure under the ordering perm
// (perm[new] = old).
func analyze(n int, rowPtr, col, perm []int) *Symbolic {
	s := &Symbolic{N: n, Perm: perm, nnzA: rowPtr[n]}
	s.Pinv = make([]int, n)
	for k, old := range s.Perm {
		s.Pinv[old] = k
	}

	// Permuted upper triangle, column-wise. Iterating new-row index i0 in
	// ascending order appends each column's rows already sorted — no
	// per-column sort pass.
	s.bp = make([]int, n+1)
	for i0 := 0; i0 < n; i0++ {
		r := s.Perm[i0]
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			if j0 := s.Pinv[col[p]]; j0 >= i0 {
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
	for i0 := 0; i0 < n; i0++ {
		r := s.Perm[i0]
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			if j0 := s.Pinv[col[p]]; j0 >= i0 {
				w := next[j0]
				s.bi[w] = int32(i0)
				s.bmap[w] = int32(p)
				next[j0] = w + 1
			}
		}
	}

	// Elimination tree and column counts (Liu's algorithm via path
	// compression-free flag walking, as in Davis' LDL): for each column k,
	// walk each upper entry's path to the root, marking and counting.
	s.Parent = make([]int, n)
	lnz := make([]int, n)
	flag := next // reuse: next is dead from here on
	for k := 0; k < n; k++ {
		s.Parent[k] = -1
		flag[k] = k
		for p := s.bp[k]; p < s.bp[k+1]; p++ {
			i := int(s.bi[p])
			if i == k {
				continue
			}
			for ; flag[i] != k; i = s.Parent[i] {
				if s.Parent[i] == -1 {
					s.Parent[i] = k
				}
				lnz[i]++
				flag[i] = k
			}
		}
	}
	s.Lp = make([]int, n+1)
	for i := 0; i < n; i++ {
		s.Lp[i+1] = s.Lp[i] + lnz[i]
	}
	return s
}

// Factor is the numeric LDLᵀ factorization of one block over a fixed
// Symbolic pattern: P·A·Pᵀ = L·D·Lᵀ with unit-diagonal L. It owns the
// scratch Refactor needs; SolveWith takes its scratch from the caller. Both
// are allocation-free.
type Factor struct {
	sym *Symbolic
	Li  []int32   // row indices of L, by column, ascending within a column
	Lx  []float64 // values of L, same layout
	D   []float64 // diagonal of D

	yn      []float64 // numeric scratch: the sparse accumulator (all-zero between passes)
	pattern []int32   // numeric scratch: row-pattern stack
	flag    []int32   // numeric scratch: visited marks
	next    []int32   // numeric scratch: per-column fill cursor
}

// Symbolic returns the structural analysis the factor was built over.
func (f *Factor) Symbolic() *Symbolic { return f.sym }

// SolveFlops returns the flop count of one SolveWith (see Symbolic.SolveFlops).
func (f *Factor) SolveFlops() float64 { return f.sym.SolveFlops() }

// Factorize runs the numeric factorization for the given values (indexed
// exactly like the rowPtr/col arrays passed to Analyze). It allocates the
// factor's storage once; call Refactor to reuse it for new values.
func (s *Symbolic) Factorize(val []float64) (*Factor, error) {
	n := s.N
	f := &Factor{
		sym:     s,
		Li:      make([]int32, s.NNZL()),
		Lx:      make([]float64, s.NNZL()),
		D:       make([]float64, n),
		yn:      make([]float64, n),
		pattern: make([]int32, n),
		flag:    make([]int32, n),
		next:    make([]int32, n),
	}
	if err := f.Refactor(val); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes L and D for new values on the same structure,
// reusing every buffer: zero allocations. The numeric pass is the
// up-looking algorithm of Davis' LDL: for each row k of L, scatter the
// permuted upper entries of column k into the sparse accumulator, walk the
// elimination tree to assemble the row pattern in topological order, then
// eliminate against each pattern column in turn.
func (f *Factor) Refactor(val []float64) error {
	s := f.sym
	n := s.N
	if len(val) < s.nnzA {
		return fmt.Errorf("spdirect: val length %d < analyzed nnz %d", len(val), s.nnzA)
	}
	// Every operand is a local (DESIGN.md §10, "Kernel form"): a store through
	// y may alias anything the compiler can see, so operands read through f or
	// s would be reloaded, and re-checked, on every nonzero.
	y, pat, flag, next := f.yn, f.pattern, f.flag, f.next
	Li, Lx, D := f.Li, f.Lx, f.D
	Lp, parent := s.Lp, s.Parent
	bp, bi, bmap := s.bp, s.bi, s.bmap
	for k := 0; k < n; k++ {
		next[k] = int32(Lp[k])
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
			p2 := int(next[i])
			li := Li[Lp[i]:p2]
			lx := Lx[Lp[i]:p2][:len(li)]
			for p, r := range li {
				y[r] -= lx[p] * yi
			}
			lki := yi / D[i]
			dk -= lki * yi
			Li[p2] = int32(k)
			Lx[p2] = lki
			next[i] = int32(p2 + 1)
		}
		if !(dk > 0) { // rejects zero, negative, and NaN pivots alike
			// Leave the accumulator clean for the next Refactor: columns
			// after k may hold scattered values not yet consumed.
			clear(y)
			return fmt.Errorf("%w (pivot %g at permuted column %d)", ErrNotPositiveDefinite, dk, k)
		}
		D[k] = dk
	}
	return nil
}

// SolveWith computes x = A⁻¹ b through the factorization: permute into the
// caller's scratch y (length ≥ n), forward solve L, scale by D, backward
// solve Lᵀ, permute back. It only reads the factorization (Perm, Lp, Li, Lx,
// D), so concurrent solves on one Factor are safe as long as each caller
// owns its y. b is not modified; x may alias b. Zero allocations.
func (f *Factor) SolveWith(b, x, y []float64) {
	// Operands are locals cut once per column (DESIGN.md §10, "Kernel form").
	// What may not change: the visit order, the forward zero skip, and one
	// a -= b*c expression per update.
	s := f.sym
	n := s.N
	perm, Lp := s.Perm[:n], s.Lp[:n+1]
	Li, Lx, D := f.Li, f.Lx, f.D[:n]
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

// Factorize is the one-call convenience: Analyze + numeric factorization.
func Factorize(n int, rowPtr, col []int, val []float64) (*Factor, error) {
	s, err := Analyze(n, rowPtr, col)
	if err != nil {
		return nil, err
	}
	return s.Factorize(val)
}
