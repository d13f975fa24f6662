package sparse

import "fmt"

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting to CSR. Its
// indices are int32 like the CSR it builds.
type COO struct {
	N    int
	Rows []int32
	Cols []int32
	Vals []float64
}

// NewCOO returns an empty builder for an n-by-n matrix with capacity hint
// capHint. It panics when either is negative or above MaxIndex.
func NewCOO(n, capHint int) *COO {
	mustFit(n, capHint)
	return &COO{
		N:    n,
		Rows: make([]int32, 0, capHint),
		Cols: make([]int32, 0, capHint),
		Vals: make([]float64, 0, capHint),
	}
}

// Add appends entry (i, j) += v. It panics on out-of-range indices, which
// always indicates a bug in a generator rather than recoverable input.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.N || j < 0 || j >= c.N {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range for n=%d", i, j, c.N))
	}
	c.Rows = append(c.Rows, int32(i))
	c.Cols = append(c.Cols, int32(j))
	c.Vals = append(c.Vals, v)
}

// AddSym appends (i,j) += v and, when i != j, (j,i) += v.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// NNZ returns the number of (possibly duplicate) entries added so far.
func (c *COO) NNZ() int { return len(c.Rows) }

// ToCSR converts the builder to CSR, summing duplicates in insertion order
// and dropping exact zeros that result from cancellation of duplicates
// (entries added as zero are kept only if their sum is nonzero, except on
// the diagonal, which is always kept so iterative methods can divide by a
// stored a_ii). It panics when more than MaxIndex entries were added.
//
// The conversion is a stable counting sort: the entries are counted per
// row and scattered into row-grouped order in insertion order; a stable
// sort of each row by column then keeps duplicates adjacent in insertion
// order, which makes the summation order — and so the result — well
// defined. Each row is compacted in place, and what survives is copied into
// exact-size arrays.
func (c *COO) ToCSR() *CSR {
	n := c.N
	m := len(c.Rows)
	mustFit(n, m)

	// ptr[i] counts row i's entries, then (prefix sum) is where row i
	// starts. The scatter advances it over the row, so afterwards ptr[i] is
	// where row i ends.
	ptr := make([]int32, n+1)
	for _, i := range c.Rows {
		ptr[i]++
	}
	pos := int32(0)
	for i := range n {
		ptr[i], pos = pos, pos+ptr[i]
	}
	tmpCol := make([]int32, m)
	tmpVal := make([]float64, m)
	for e, i := range c.Rows {
		p := ptr[i]
		ptr[i] = p + 1
		tmpCol[p] = c.Cols[e]
		tmpVal[p] = c.Vals[e]
	}

	// Per row: stable sort by column, duplicate summation, zero dropping
	// and compaction to w. Row i spans [lo, ptr[i]); its end is read before
	// ptr[i] becomes RowPtr[i] = w, and w never passes lo, so the
	// compaction overwrites only entries already read.
	w, lo := int32(0), int32(0)
	for i := range n {
		hi := ptr[i]
		ptr[i] = w
		cols, vals := tmpCol[lo:hi], tmpVal[lo:hi]
		lo = hi
		// Stable insertion sort: rows are short (bounded by the
		// stencil/element valence), and stability keeps duplicate entries
		// in insertion order.
		for p := 1; p < len(cols); p++ {
			cj, vj := cols[p], vals[p]
			q := p - 1
			for q >= 0 && cols[q] > cj {
				cols[q+1] = cols[q]
				vals[q+1] = vals[q]
				q--
			}
			cols[q+1] = cj
			vals[q+1] = vj
		}
		for k := 0; k < len(cols); {
			j := cols[k]
			v := vals[k]
			for k++; k < len(cols) && cols[k] == j; k++ {
				v += vals[k]
			}
			if v != 0 || int(j) == i {
				tmpCol[w] = j
				tmpVal[w] = v
				w++
			}
		}
	}
	ptr[n] = w
	a := &CSR{N: n, RowPtr: ptr, Col: make([]int32, w), Val: make([]float64, w)}
	copy(a.Col, tmpCol)
	copy(a.Val, tmpVal)
	return a
}
