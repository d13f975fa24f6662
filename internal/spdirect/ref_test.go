package spdirect

import "slices"

// Reference oracles: the numeric loops exactly as they were written before
// the kernels moved their operands into locals (DESIGN.md §10, "Kernel
// form"). They index through the factor on every nonzero, which is slow and
// obviously right; oracle_test.go asserts the production kernels reproduce
// every output bit. Do not "tidy" these — their value is that they are not
// the code under test.

// solveRef is the pre-rewrite (*Factor).SolveWith.
func (f *Factor) solveRef(b, x, y []float64) {
	n := len(f.D)
	for k := 0; k < n; k++ {
		y[k] = b[f.perm[k]]
	}
	for i := 0; i < n; i++ {
		yi := y[i]
		if yi != 0 {
			for p := f.lp[i]; p < f.lp[i+1]; p++ {
				y[f.Li[p]] -= f.Lx[p] * yi
			}
		}
	}
	for k := 0; k < n; k++ {
		y[k] /= f.D[k]
	}
	for i := n - 1; i >= 0; i-- {
		yi := y[i]
		for p := f.lp[i]; p < f.lp[i+1]; p++ {
			yi -= f.Lx[p] * y[f.Li[p]]
		}
		y[i] = yi
	}
	for k := 0; k < n; k++ {
		x[f.perm[k]] = y[k]
	}
}

// refactorRef is the pre-rewrite numeric pass, filling f over s's pattern
// with its own scratch and returning the permuted column of the first
// non-positive pivot, or -1 (the error text is not part of the numeric
// contract).
func (s *symbolic) refactorRef(f *Factor, val []float64) (bad int) {
	n := len(s.perm)
	y, pat, flag, next := make([]float64, n), make([]int32, n), make([]int32, n), make([]int32, n)
	for k := 0; k < n; k++ {
		next[k] = int32(s.lp[k])
		flag[k] = -1
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = int32(k)
		for p := s.bp[k]; p < s.bp[k+1]; p++ {
			i := int(s.bi[p])
			y[i] += val[s.bmap[p]]
			plen := 0
			for ; flag[i] != int32(k); i = s.parent[i] {
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
		for ; top < n; top++ {
			i := int(pat[top])
			yi := y[i]
			y[i] = 0
			p2 := int(next[i])
			for p := s.lp[i]; p < p2; p++ {
				y[f.Li[p]] -= f.Lx[p] * yi
			}
			lki := yi / f.D[i]
			dk -= lki * yi
			f.Li[p2] = int32(k)
			f.Lx[p2] = lki
			next[i] = int32(p2 + 1)
		}
		if !(dk > 0) {
			return k
		}
		f.D[k] = dk
	}
	return -1
}

// numericPasses analyzes a validated block under RCM and runs the production
// numeric pass and refactorRef on two fresh factors of that pattern. Each
// factor is partial on failure; got and want are the failing columns (-1:
// none).
func numericPasses(rowPtr, col []int32, val []float64) (fGot, fWant *Factor, got, want int) {
	s := analyze(rowPtr, col, rcmPerm(rowPtr, col))
	fGot, fWant = s.newFactor(), s.newFactor()
	got, _ = s.numeric(fGot, val)
	return fGot, fWant, got, s.refactorRef(fWant, val)
}

// Handles for the external test package (which can import dmem for the
// direct64 blocks; this package cannot). FactorizePerm is Factorize under a
// given ordering, for the tests that compare RCM against the natural one;
// Perm and ColPtr read the ordering and L's column pointers of a factor.
var (
	SolveRef         = (*Factor).solveRef
	Neighborhoods    = neighborhoods
	NeighborhoodsRef = neighborhoodsRef
	NumericPasses    = numericPasses
	FactorizePerm    = factorize
	Perm             = func(f *Factor) []int32 { return f.perm }
	ColPtr           = func(f *Factor) []int { return f.lp }
)

// neighborhoodsRef is neighborhoods as it was before it ordered by counting:
// one slices.SortFunc per row on the key (degree, id).
func neighborhoodsRef(rowPtr, col []int32) (deg, adjPtr, adj []int32) {
	n := len(rowPtr) - 1
	deg = make([]int32, n)
	for i := range deg {
		for _, c := range col[rowPtr[i]:rowPtr[i+1]] {
			if int(c) != i {
				deg[i]++
			}
		}
	}
	adjPtr = make([]int32, n+1)
	for i, d := range deg {
		adjPtr[i+1] = adjPtr[i] + d
	}
	adj = make([]int32, adjPtr[n])
	byDegree := func(a, b int32) int {
		if deg[a] != deg[b] {
			return int(deg[a]) - int(deg[b])
		}
		return int(a) - int(b)
	}
	for i := range deg {
		w := adjPtr[i]
		for _, c := range col[rowPtr[i]:rowPtr[i+1]] {
			if int(c) != i {
				adj[w] = c
				w++
			}
		}
		slices.SortFunc(adj[adjPtr[i]:adjPtr[i+1]], byDegree)
	}
	return deg, adjPtr, adj
}
