package sparse

import (
	"fmt"

	"southwell/internal/parallel"
)

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
// The conversion is a stable per-shard counting sort instead of a
// comparison sort: the entry list is cut into a fixed number of contiguous
// shards (a function of the entry count only), each shard counts its
// entries per row, a sequential pass lays out per-(row, shard) base
// offsets, and the shards scatter in parallel. Because offsets are ordered
// by shard and shards are contiguous, every row receives its entries in
// global insertion order; a stable per-row sort by column then keeps
// duplicates adjacent in insertion order, making the summation order — and
// therefore the result — well defined and bit-identical for any worker
// count.
func (c *COO) ToCSR() *CSR {
	n := c.N
	m := len(c.Rows)
	mustFit(n, m)
	ns := parallel.Blocks(m, convShardGrain, maxConvShards)
	shards := parallel.SplitN(m, ns, make([]parallel.Range, 0, ns))

	// Phase 1: per-shard row counts.
	cnt := make([]int32, ns*n)
	parallel.For(ns, func(s int) {
		cn := cnt[s*n : (s+1)*n]
		rg := shards[s]
		for e := rg.Lo; e < rg.Hi; e++ {
			cn[c.Rows[e]]++
		}
	})

	// Phase 2 (sequential): convert counts to per-(row, shard) base offsets
	// in row-major, shard-minor order, recording each row's start.
	rowStart := make([]int32, n+1)
	pos := int32(0)
	for i := 0; i < n; i++ {
		rowStart[i] = pos
		for s := 0; s < ns; s++ {
			v := cnt[s*n+i]
			cnt[s*n+i] = pos
			pos += v
		}
	}
	rowStart[n] = pos

	// Phase 3: stable parallel scatter into row-grouped order.
	tmpCol := make([]int32, m)
	tmpVal := make([]float64, m)
	parallel.For(ns, func(s int) {
		off := cnt[s*n : (s+1)*n]
		rg := shards[s]
		for e := rg.Lo; e < rg.Hi; e++ {
			i := c.Rows[e]
			p := off[i]
			off[i] = p + 1
			tmpCol[p] = c.Cols[e]
			tmpVal[p] = c.Vals[e]
		}
	})

	// Phase 4: per-row stable sort by column, duplicate summation in
	// insertion order, zero dropping, and in-place compaction. Rows are
	// independent, so row blocks run in parallel. kept[i+1] holds row i's
	// surviving entry count and becomes RowPtr after a prefix sum.
	kept := make([]int32, n+1)
	nrb := parallel.Blocks(n, rowBlockGrain, maxKernBlocks)
	rowBlocks := parallel.SplitN(n, nrb, make([]parallel.Range, 0, nrb))
	parallel.For(nrb, func(b int) {
		rg := rowBlocks[b]
		for i := rg.Lo; i < rg.Hi; i++ {
			cols := tmpCol[rowStart[i]:rowStart[i+1]]
			vals := tmpVal[rowStart[i]:rowStart[i+1]]
			// Stable insertion sort: rows are short (bounded by the
			// stencil/element valence), and stability keeps duplicate
			// entries in insertion order.
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
			w := 0
			for k := 0; k < len(cols); {
				j := cols[k]
				v := vals[k]
				for k++; k < len(cols) && cols[k] == j; k++ {
					v += vals[k]
				}
				if v != 0 || int(j) == i {
					cols[w] = j
					vals[w] = v
					w++
				}
			}
			kept[i+1] = int32(w)
		}
	})

	// Phase 5 (sequential): prefix sum of kept counts.
	for i := 0; i < n; i++ {
		kept[i+1] += kept[i]
	}

	// Phase 6: parallel compaction into the final arrays.
	a := &CSR{
		N:      n,
		RowPtr: kept,
		Col:    make([]int32, kept[n]),
		Val:    make([]float64, kept[n]),
	}
	parallel.For(nrb, func(b int) {
		rg := rowBlocks[b]
		for i := rg.Lo; i < rg.Hi; i++ {
			copy(a.Col[kept[i]:kept[i+1]], tmpCol[rowStart[i]:])
			copy(a.Val[kept[i]:kept[i+1]], tmpVal[rowStart[i]:])
		}
	})
	return a
}
