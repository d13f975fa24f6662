package problem

import (
	"math/rand"

	"southwell/internal/sparse"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FEM2D assembles the stiffness matrix of -Δu with homogeneous Dirichlet
// boundary conditions on an irregularly structured triangulation of the
// unit square, using linear (P1) triangular elements — the "small finite
// element problem" of the paper's Figures 2 and 5.
//
// The mesh starts from an (m+1)×(m+1) node grid; each cell is split into
// two triangles with an alternating diagonal, and interior node coordinates
// are perturbed by up to `distort`·h in each direction (deterministically,
// from seed), which makes the elements irregular, produces varying row
// degrees, and — for distort large enough to create obtuse triangles —
// positive off-diagonal entries (a non-M-matrix), matching the
// "irregularly structured linear triangular elements" of §2.3.
//
// Boundary nodes are eliminated; the matrix dimension is (m-1)².
func FEM2D(m int, distort float64, seed int64) *sparse.CSR {
	rng := newRand(seed) // two draws per interior node, row-major
	nn := (m + 1) * (m + 1)
	xs := make([]float64, nn)
	ys := make([]float64, nn)
	h := 1.0 / float64(m)
	node := func(ix, iy int) int { return iy*(m+1) + ix }
	for iy := 0; iy <= m; iy++ {
		for ix := 0; ix <= m; ix++ {
			x := float64(ix) * h
			y := float64(iy) * h
			if ix > 0 && ix < m && iy > 0 && iy < m {
				x += distort * h * (2*rng.Float64() - 1)
				y += distort * h * (2*rng.Float64() - 1)
			}
			xs[node(ix, iy)] = x
			ys[node(ix, iy)] = y
		}
	}

	// Interior numbering.
	idx := make([]int, nn)
	for i := range idx {
		idx[i] = -1
	}
	ni := 0
	for iy := 1; iy < m; iy++ {
		for ix := 1; ix < m; ix++ {
			idx[node(ix, iy)] = ni
			ni++
		}
	}

	// Element assembly: each cell contributes two triangles of up to 9
	// entries each, summed where they meet by ToCSR, so the builder is
	// pre-sized at 18 entries per cell.
	c := sparse.NewCOO(ni, 18*m*m)
	assemble := func(v0, v1, v2 int) {
		x0, y0 := xs[v0], ys[v0]
		x1, y1 := xs[v1], ys[v1]
		x2, y2 := xs[v2], ys[v2]
		b := [3]float64{y1 - y2, y2 - y0, y0 - y1}
		cc := [3]float64{x2 - x1, x0 - x2, x1 - x0}
		det := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
		area2 := det // 2*signed area; mesh orientation keeps it positive
		if area2 < 0 {
			area2 = -area2
		}
		verts := [3]int{v0, v1, v2}
		for a := 0; a < 3; a++ {
			ia := idx[verts[a]]
			if ia < 0 {
				continue
			}
			for bb := 0; bb < 3; bb++ {
				ib := idx[verts[bb]]
				if ib < 0 {
					continue
				}
				k := (b[a]*b[bb] + cc[a]*cc[bb]) / (2 * area2)
				c.Add(ia, ib, k)
			}
		}
	}
	for iy := 0; iy < m; iy++ {
		for ix := 0; ix < m; ix++ {
			a := node(ix, iy)
			b := node(ix+1, iy)
			cN := node(ix, iy+1)
			d := node(ix+1, iy+1)
			if (ix+iy)%2 == 0 { // alternate the cell diagonal
				assemble(a, b, d)
				assemble(a, d, cN)
			} else {
				assemble(a, b, cN)
				assemble(b, d, cN)
			}
		}
	}
	return c.ToCSR()
}

// Fig2FEM returns the finite element problem used for Figures 2 and 5,
// sized to approximate the paper's 3081 rows: a distorted triangulation
// with (m-1)² = 3025 interior nodes (m=56). The paper's mesh generator is
// unavailable; this perturbed triangulation reproduces the irregular
// element shapes, the ~6 colors under multicolor ordering, and the relative
// method behaviour (see DESIGN.md).
func Fig2FEM() *sparse.CSR {
	return FEM2D(56, 0.35, 20170713)
}
