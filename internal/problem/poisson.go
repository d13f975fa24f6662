// Package problem generates the sparse symmetric positive definite test
// systems used throughout the reproduction: structured Poisson
// discretizations in 2D and 3D (isotropic, anisotropic, jump and random
// coefficients), an unstructured-style 2D finite element Poisson problem
// (the small example of the paper's Figures 2 and 5), plate/biharmonic
// operators, and a 14-matrix synthetic stand-in for the paper's SuiteSparse
// collection (Table 1).
package problem

import (
	"fmt"
	"math"

	"southwell/internal/sparse"
)

// faces holds one grid point's off-diagonal entries in the order x−, x+,
// y−, y+, z−, z+; a face on the grid boundary has no neighbour to couple
// to and is not read.
type faces [6]float64

// stencil returns the matrix of a 5- or 7-point stencil on an
// nx-by-ny-by-nz grid, row (iz*ny+iy)*nx+ix for point (ix, iy, iz),
// written row by row straight into exact-size CSR arrays with the columns
// ascending. row gives a point's off-diagonal entries and its diagonal.
// An off-diagonal that is exactly zero is not stored (COO.ToCSR's
// policy); the diagonal always is.
func stencil(nx, ny, nz int, row func(ix, iy, iz int) (faces, float64)) *sparse.CSR {
	n := nx * ny * nz
	nnz := n + 2*(max(nx-1, 0)*ny*nz+nx*max(ny-1, 0)*nz+nx*ny*max(nz-1, 0))
	if n > sparse.MaxIndex || nnz > sparse.MaxIndex {
		panic(fmt.Sprintf("problem: %d×%d×%d grid: n = %d, nnz = %d outside the 32-bit index range [0, %d]", nx, ny, nz, n, nnz, sparse.MaxIndex))
	}
	a := &sparse.CSR{N: n, RowPtr: make([]int32, n+1), Col: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	put := func(j int, v float64) {
		if v != 0 {
			a.Col = append(a.Col, int32(j))
			a.Val = append(a.Val, v)
		}
	}
	i := 0
	for iz := range nz {
		for iy := range ny {
			for ix := range nx {
				f, d := row(ix, iy, iz)
				if iz > 0 {
					put(i-nx*ny, f[4])
				}
				if iy > 0 {
					put(i-nx, f[2])
				}
				if ix > 0 {
					put(i-1, f[0])
				}
				a.Col = append(a.Col, int32(i))
				a.Val = append(a.Val, d)
				if ix < nx-1 {
					put(i+1, f[1])
				}
				if iy < ny-1 {
					put(i+nx, f[3])
				}
				if iz < nz-1 {
					put(i+nx*ny, f[5])
				}
				i++
				a.RowPtr[i] = int32(len(a.Col))
			}
		}
	}
	if len(a.Col) < nnz { // a zero coupling was dropped: re-cut to exact size
		a.Col = append(make([]int32, 0, len(a.Col)), a.Col...)
		a.Val = append(make([]float64, 0, len(a.Val)), a.Val...)
	}
	return a
}

// Poisson2D returns the nx-by-ny 5-point centered finite difference
// discretization of -Δu on the unit square with homogeneous Dirichlet
// boundary conditions. The matrix has dimension nx*ny (interior points only)
// and row i corresponds to grid point (i%nx, i/nx). It is Aniso2D at
// eps = 1.
func Poisson2D(nx, ny int) *sparse.CSR { return Aniso2D(nx, ny, 1) }

// Aniso2D returns the 5-point discretization of -eps*u_xx - u_yy on an
// nx-by-ny interior grid (Dirichlet). eps << 1 produces strong coupling in
// the y direction only, a classically hard case for point smoothers.
func Aniso2D(nx, ny int, eps float64) *sparse.CSR {
	return stencil(nx, ny, 1, func(int, int, int) (faces, float64) {
		return faces{-eps, -eps, -1, -1}, 2*eps + 2
	})
}

// Coeff3D maps a grid cell to a scalar diffusion coefficient. Face
// coefficients between two cells use the harmonic mean, the standard
// finite-volume treatment for discontinuous coefficients.
type Coeff3D func(ix, iy, iz int) float64

// Poisson3D returns the 7-point discretization of -∇·(a∇u) on an
// nx-by-ny-by-nz interior grid with Dirichlet boundaries and cell
// coefficient field a. Pass nil for a to get the constant-coefficient
// Laplacian. Anisotropy (ax, ay, az) scales each direction.
func Poisson3D(nx, ny, nz int, a Coeff3D, ax, ay, az float64) *sparse.CSR {
	if a == nil {
		a = func(int, int, int) float64 { return 1 }
	}
	harm := func(u, v float64) float64 { return 2 * u * v / (u + v) }
	return stencil(nx, ny, nz, func(ix, iy, iz int) (f faces, diag float64) {
		ai := a(ix, iy, iz)
		// The diagonal sums the face weights in face order. For a boundary
		// face the neighbour value is the Dirichlet zero; the face still
		// contributes to the diagonal.
		face := func(k int, inside bool, s float64, jx, jy, jz int) {
			w := s * ai
			if inside {
				w = s * harm(ai, a(jx, jy, jz))
				f[k] = -w
			}
			diag += w
		}
		face(0, ix > 0, ax, ix-1, iy, iz)
		face(1, ix < nx-1, ax, ix+1, iy, iz)
		face(2, iy > 0, ay, ix, iy-1, iz)
		face(3, iy < ny-1, ay, ix, iy+1, iz)
		face(4, iz > 0, az, ix, iy, iz-1)
		face(5, iz < nz-1, az, ix, iy, iz+1)
		return f, diag
	})
}

// QuadrantJump2D returns a 2D coefficient-jump Poisson problem: coefficient
// is `jump` in the (+,+) and (-,-) quadrants and 1 elsewhere, 5-point
// finite volume with harmonic face averaging, Dirichlet boundaries. It is
// Poisson3D on one plane with no z coupling (az = 0 adds an exact zero to
// each diagonal, for any finite jump).
func QuadrantJump2D(nx, ny int, jump float64) *sparse.CSR {
	coeff := func(ix, iy, _ int) float64 {
		if (ix >= nx/2) == (iy >= ny/2) {
			return jump
		}
		return 1
	}
	return Poisson3D(nx, ny, 1, coeff, 1, 1, 0)
}

// Biharmonic2D returns the 13-point discretization of Δ²u on an nx-by-ny
// interior grid, built as the square of the 5-point Laplacian (clamped
// Dirichlet-like boundary). It is SPD with positive off-diagonal entries,
// the structural-mechanics character (plates, shells) that defeats point
// and small-block Jacobi: after unit-diagonal scaling its spectrum extends
// beyond 2.
func Biharmonic2D(nx, ny int) *sparse.CSR {
	return sparse.SquarePlus(Poisson2D(nx, ny), 1, 0)
}

// PlateMix returns alpha*Biharmonic + beta*Laplacian on the given 2D grid:
// a thin-plate model whose Jacobi-divergence strength is tuned by
// alpha/beta. The result is SPD for alpha, beta >= 0 (not both zero).
func PlateMix2D(nx, ny int, alpha, beta float64) *sparse.CSR {
	return sparse.SquarePlus(Poisson2D(nx, ny), alpha, beta)
}

// PlateMix3D is the 3D analog of PlateMix2D.
func PlateMix3D(nx, ny, nz int, alpha, beta float64) *sparse.CSR {
	return sparse.SquarePlus(Poisson3D(nx, ny, nz, nil, 1, 1, 1), alpha, beta)
}

// FaultJump3D returns a 3D 7-point problem whose coefficient jumps by
// `jump` across the tilted plane ix+iy = const, imitating a geological
// fault.
func FaultJump3D(nx, ny, nz int, jump float64) *sparse.CSR {
	cut := (nx + ny) / 2
	coeff := func(ix, iy, iz int) float64 {
		if ix+iy < cut {
			return 1
		}
		return jump
	}
	return Poisson3D(nx, ny, nz, coeff, 1, 1, 1)
}

// CheckerJump3D returns a 3D 7-point problem with coefficient `jump` on a
// 3D checkerboard of cubic inclusions of side `cell`, imitating
// heterogeneous media such as trabecular bone.
func CheckerJump3D(nx, ny, nz, cell int, jump float64) *sparse.CSR {
	coeff := func(ix, iy, iz int) float64 {
		if (ix/cell+iy/cell+iz/cell)%2 == 0 {
			return jump
		}
		return 1
	}
	return Poisson3D(nx, ny, nz, coeff, 1, 1, 1)
}

// LognormalCoeff returns a deterministic pseudo-random lognormal coefficient
// field for StocF-style stochastic flow problems. sigma controls contrast.
func LognormalCoeff(nx, ny, nz int, sigma float64, seed int64) Coeff3D {
	vals := make([]float64, nx*ny*nz)
	rng := newRand(seed)
	for i := range vals {
		vals[i] = math.Exp(sigma * rng.NormFloat64())
	}
	return func(ix, iy, iz int) float64 {
		return vals[(iz*ny+iy)*nx+ix]
	}
}
