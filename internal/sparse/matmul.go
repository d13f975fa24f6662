package sparse

import "slices"

// SquarePlus returns alpha*L*L + beta*L for a square matrix L, row by row.
// It builds the plate operators of internal/problem (alpha*Δ² + beta*Δ on
// a stencil Laplacian) in one pass, with no intermediate matrix.
//
// Row i of L*L accumulates the Gustavson way: k over row i of L, then j
// over row k of L, each product added to a dense accumulator in that
// order. An off-diagonal of L*L that sums to exactly zero is dropped. The
// kept columns merge with row i of L: an entry in both is
// alpha*acc + beta*l, one in L*L only alpha*acc, one in L only beta*l. An
// off-diagonal result of exactly zero is dropped as well; the diagonal is
// always kept (COO.ToCSR's policy).
//
// A symbolic pass counts the union of the two patterns first, so Col and
// Val are allocated once, after the count is checked against MaxIndex:
// cancellation can only leave them shorter.
func SquarePlus(l *CSR, alpha, beta float64) *CSR {
	n := l.N
	mustFit(n, 0)
	mark := make([]int32, n) // mark[j] == i+1 once column j was met in row i
	nnz := 0
	for i := range n {
		row := int32(i + 1)
		li := l.Col[l.RowPtr[i]:l.RowPtr[i+1]]
		for _, k := range li {
			for _, j := range l.Col[l.RowPtr[k]:l.RowPtr[k+1]] {
				if mark[j] != row {
					mark[j] = row
					nnz++
				}
			}
		}
		for _, j := range li {
			if mark[j] != row {
				mark[j] = row
				nnz++
			}
		}
	}
	mustFit(n, nnz)
	clear(mark)
	c := &CSR{N: n, RowPtr: make([]int32, n+1), Col: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	acc := make([]float64, n)  // row i of L*L, live at the columns in idx
	idx := make([]int32, 0, n) // the columns of row i of L*L
	for i := range n {
		keep := func(j int32, v float64) {
			if v != 0 || int(j) == i {
				c.Col = append(c.Col, j)
				c.Val = append(c.Val, v)
			}
		}
		row := int32(i + 1)
		idx = idx[:0]
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			k, lik := l.Col[p], l.Val[p]
			for q := l.RowPtr[k]; q < l.RowPtr[k+1]; q++ {
				j := l.Col[q]
				if mark[j] != row {
					mark[j] = row
					acc[j] = 0
					idx = append(idx, j)
				}
				acc[j] += lik * l.Val[q]
			}
		}
		slices.Sort(idx)
		p := lo
		for _, j := range idx {
			if acc[j] == 0 && int(j) != i {
				continue // dropped from L*L; L's own entry at j, if any, is beta*l
			}
			for ; p < hi && l.Col[p] < j; p++ {
				keep(l.Col[p], beta*l.Val[p])
			}
			if p < hi && l.Col[p] == j {
				keep(j, alpha*acc[j]+beta*l.Val[p])
				p++
			} else {
				keep(j, alpha*acc[j])
			}
		}
		for ; p < hi; p++ {
			keep(l.Col[p], beta*l.Val[p])
		}
		c.RowPtr[i+1] = int32(len(c.Col))
	}
	return c
}
