package sparse

// Mul returns the sparse product C = A*B using Gustavson's row-by-row
// algorithm. Entries that cancel to exactly zero are kept out of the result
// unless they are diagonal (matching COO.ToCSR policy).
//
// It is used to build higher-order operators (e.g. the discrete biharmonic
// L*L used by the synthetic structural matrices in internal/problem) and
// Galerkin-style products in tests.
//
// A symbolic pass counts the structural nonzeros of C first, so Col and Val
// are allocated once, after the count is checked against MaxIndex:
// cancellation can only leave them shorter.
func Mul(a, b *CSR) *CSR {
	if a.N != b.N {
		panic("sparse: Mul dimension mismatch")
	}
	n := a.N
	mustFit(n, 0)
	marker := make([]int32, n) // marker[j] == i+1 when column j was met in row i
	nnz := 0
	for i := 0; i < n; i++ {
		row := int32(i + 1)
		for _, k := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			for _, j := range b.Col[b.RowPtr[k]:b.RowPtr[k+1]] {
				if marker[j] != row {
					marker[j] = row
					nnz++
				}
			}
		}
	}
	mustFit(n, nnz)
	clear(marker)
	c := &CSR{N: n, RowPtr: make([]int32, n+1), Col: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}

	acc := make([]float64, n)  // dense accumulator for one row
	idx := make([]int32, 0, n) // live column indices for one row

	for i := 0; i < n; i++ {
		row := int32(i + 1)
		idx = idx[:0]
		alo, ahi := a.RowPtr[i], a.RowPtr[i+1]
		for ka := alo; ka < ahi; ka++ {
			k := a.Col[ka]
			av := a.Val[ka]
			blo, bhi := b.RowPtr[k], b.RowPtr[k+1]
			for kb := blo; kb < bhi; kb++ {
				j := b.Col[kb]
				if marker[j] != row {
					marker[j] = row
					acc[j] = 0
					idx = append(idx, j)
				}
				acc[j] += av * b.Val[kb]
			}
		}
		// Gather in sorted column order.
		insertionSort(idx)
		for _, j := range idx {
			if acc[j] == 0 && int(j) != i {
				continue
			}
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, acc[j])
		}
		c.RowPtr[i+1] = int32(len(c.Col))
	}
	return c
}

// Add returns alpha*A + beta*B for same-shaped square matrices. Col and Val
// are allocated once, at the size of the union of the two patterns, after
// that size is checked against MaxIndex.
func Add(a, b *CSR, alpha, beta float64) *CSR {
	if a.N != b.N {
		panic("sparse: Add dimension mismatch")
	}
	n := a.N
	mustFit(n, 0)
	nnz := 0
	for i := 0; i < n; i++ {
		nnz += unionLen(a.Col[a.RowPtr[i]:a.RowPtr[i+1]], b.Col[b.RowPtr[i]:b.RowPtr[i+1]])
	}
	mustFit(n, nnz)
	c := &CSR{N: n, RowPtr: make([]int32, n+1), Col: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < n; i++ {
		ka, kaEnd := a.RowPtr[i], a.RowPtr[i+1]
		kb, kbEnd := b.RowPtr[i], b.RowPtr[i+1]
		for ka < kaEnd || kb < kbEnd {
			var j int32
			var v float64
			switch {
			case kb >= kbEnd || (ka < kaEnd && a.Col[ka] < b.Col[kb]):
				j, v = a.Col[ka], alpha*a.Val[ka]
				ka++
			case ka >= kaEnd || b.Col[kb] < a.Col[ka]:
				j, v = b.Col[kb], beta*b.Val[kb]
				kb++
			default:
				j, v = a.Col[ka], alpha*a.Val[ka]+beta*b.Val[kb]
				ka++
				kb++
			}
			if v != 0 || int(j) == i {
				c.Col = append(c.Col, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Col))
	}
	return c
}

// unionLen returns the number of distinct values in two ascending slices.
func unionLen(x, y []int32) int {
	n, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case y[j] < x[i]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + len(x) - i + len(y) - j
}

// insertionSort sorts small index slices in place; rows of sparse
// products are short, so this beats slices.Sort on the hot path.
func insertionSort(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
