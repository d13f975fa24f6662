// Package problem generates the sparse symmetric positive definite test
// systems used throughout the reproduction: structured Poisson
// discretizations in 2D and 3D (isotropic, anisotropic, jump and random
// coefficients), an unstructured-style 2D finite element Poisson problem
// (the small example of the paper's Figures 2 and 5), plate/biharmonic
// operators, and a 14-matrix synthetic stand-in for the paper's SuiteSparse
// collection (Table 1).
package problem

import (
	"math"

	"southwell/internal/sparse"
)

// Poisson2D returns the nx-by-ny 5-point centered finite difference
// discretization of -Δu on the unit square with homogeneous Dirichlet
// boundary conditions. The matrix has dimension nx*ny (interior points only)
// and row i corresponds to grid point (i%nx, i/nx).
func Poisson2D(nx, ny int) *sparse.CSR {
	id := func(ix, iy int) int { return iy*nx + ix }
	return assembleBlocked(nx*ny, ny, 5*nx, func(c *sparse.COO, iy int) {
		for ix := 0; ix < nx; ix++ {
			i := id(ix, iy)
			c.Add(i, i, 4)
			if ix > 0 {
				c.Add(i, id(ix-1, iy), -1)
			}
			if ix < nx-1 {
				c.Add(i, id(ix+1, iy), -1)
			}
			if iy > 0 {
				c.Add(i, id(ix, iy-1), -1)
			}
			if iy < ny-1 {
				c.Add(i, id(ix, iy+1), -1)
			}
		}
	})
}

// Aniso2D returns the 5-point discretization of -eps*u_xx - u_yy on an
// nx-by-ny interior grid (Dirichlet). eps << 1 produces strong coupling in
// the y direction only, a classically hard case for point smoothers.
func Aniso2D(nx, ny int, eps float64) *sparse.CSR {
	id := func(ix, iy int) int { return iy*nx + ix }
	return assembleBlocked(nx*ny, ny, 5*nx, func(c *sparse.COO, iy int) {
		for ix := 0; ix < nx; ix++ {
			i := id(ix, iy)
			c.Add(i, i, 2*eps+2)
			if ix > 0 {
				c.Add(i, id(ix-1, iy), -eps)
			}
			if ix < nx-1 {
				c.Add(i, id(ix+1, iy), -eps)
			}
			if iy > 0 {
				c.Add(i, id(ix, iy-1), -1)
			}
			if iy < ny-1 {
				c.Add(i, id(ix, iy+1), -1)
			}
		}
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
	n := nx * ny * nz
	id := func(ix, iy, iz int) int { return (iz*ny+iy)*nx + ix }
	harm := func(u, v float64) float64 { return 2 * u * v / (u + v) }
	return assembleBlocked(n, nz, 7*nx*ny, func(c *sparse.COO, iz int) {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := id(ix, iy, iz)
				ai := a(ix, iy, iz)
				diag := 0.0
				add := func(j int, w float64) {
					c.Add(i, j, -w)
					diag += w
				}
				// For boundary faces the neighbor value is the Dirichlet
				// zero; the face still contributes to the diagonal.
				if ix > 0 {
					add(id(ix-1, iy, iz), ax*harm(ai, a(ix-1, iy, iz)))
				} else {
					diag += ax * ai
				}
				if ix < nx-1 {
					add(id(ix+1, iy, iz), ax*harm(ai, a(ix+1, iy, iz)))
				} else {
					diag += ax * ai
				}
				if iy > 0 {
					add(id(ix, iy-1, iz), ay*harm(ai, a(ix, iy-1, iz)))
				} else {
					diag += ay * ai
				}
				if iy < ny-1 {
					add(id(ix, iy+1, iz), ay*harm(ai, a(ix, iy+1, iz)))
				} else {
					diag += ay * ai
				}
				if iz > 0 {
					add(id(ix, iy, iz-1), az*harm(ai, a(ix, iy, iz-1)))
				} else {
					diag += az * ai
				}
				if iz < nz-1 {
					add(id(ix, iy, iz+1), az*harm(ai, a(ix, iy, iz+1)))
				} else {
					diag += az * ai
				}
				c.Add(i, i, diag)
			}
		}
	})
}

// QuadrantJump2D returns a 2D coefficient-jump Poisson problem: coefficient
// is `jump` in the (+,+) and (-,-) quadrants and 1 elsewhere, 5-point
// finite volume with harmonic face averaging, Dirichlet boundaries.
func QuadrantJump2D(nx, ny int, jump float64) *sparse.CSR {
	coeff := func(ix, iy int) float64 {
		inX := ix >= nx/2
		inY := iy >= ny/2
		if inX == inY {
			return jump
		}
		return 1
	}
	n := nx * ny
	id := func(ix, iy int) int { return iy*nx + ix }
	harm := func(u, v float64) float64 { return 2 * u * v / (u + v) }
	return assembleBlocked(n, ny, 5*nx, func(c *sparse.COO, iy int) {
		for ix := 0; ix < nx; ix++ {
			i := id(ix, iy)
			ai := coeff(ix, iy)
			diag := 0.0
			add := func(j int, w float64) {
				c.Add(i, j, -w)
				diag += w
			}
			if ix > 0 {
				add(id(ix-1, iy), harm(ai, coeff(ix-1, iy)))
			} else {
				diag += ai
			}
			if ix < nx-1 {
				add(id(ix+1, iy), harm(ai, coeff(ix+1, iy)))
			} else {
				diag += ai
			}
			if iy > 0 {
				add(id(ix, iy-1), harm(ai, coeff(ix, iy-1)))
			} else {
				diag += ai
			}
			if iy < ny-1 {
				add(id(ix, iy+1), harm(ai, coeff(ix, iy+1)))
			} else {
				diag += ai
			}
			c.Add(i, i, diag)
		}
	})
}

// Biharmonic2D returns the 13-point discretization of Δ²u on an nx-by-ny
// interior grid, built as the square of the 5-point Laplacian (clamped
// Dirichlet-like boundary). It is SPD with positive off-diagonal entries,
// the structural-mechanics character (plates, shells) that defeats point
// and small-block Jacobi: after unit-diagonal scaling its spectrum extends
// beyond 2.
func Biharmonic2D(nx, ny int) *sparse.CSR {
	l := Poisson2D(nx, ny)
	return sparse.Mul(l, l)
}

// PlateMix returns alpha*Biharmonic + beta*Laplacian on the given 2D grid:
// a thin-plate model whose Jacobi-divergence strength is tuned by
// alpha/beta. The result is SPD for alpha, beta >= 0 (not both zero).
func PlateMix2D(nx, ny int, alpha, beta float64) *sparse.CSR {
	l := Poisson2D(nx, ny)
	return sparse.Add(sparse.Mul(l, l), l, alpha, beta)
}

// PlateMix3D is the 3D analog of PlateMix2D.
func PlateMix3D(nx, ny, nz int, alpha, beta float64) *sparse.CSR {
	l := Poisson3D(nx, ny, nz, nil, 1, 1, 1)
	return sparse.Add(sparse.Mul(l, l), l, alpha, beta)
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
