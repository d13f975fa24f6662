package problem

import (
	"fmt"

	"southwell/internal/sparse"
)

// SuiteEntry is one synthetic stand-in for a SuiteSparse matrix of the
// paper's Table 1. Gen builds the (unscaled) SPD matrix; callers normally
// want Build, which also applies the unit-diagonal symmetric scaling of
// §4.2.
type SuiteEntry struct {
	Name string
	// Kind documents the physical character being imitated.
	Kind string
	// PaperNNZ / PaperN record the original SuiteSparse dimensions for
	// reporting next to our scaled-down stand-ins.
	PaperNNZ int
	PaperN   int
	Gen      func() *sparse.CSR
}

// Build generates the matrix and symmetrically scales it to unit diagonal.
func (e SuiteEntry) Build() *sparse.CSR {
	a := e.Gen()
	if _, err := sparse.Scale(a); err != nil {
		// Generators produce SPD matrices by construction; a failure here is
		// a programming error, not user input.
		panic(fmt.Sprintf("problem: suite %s: %v", e.Name, err))
	}
	return a
}

// Suite returns synthetic stand-ins for the 14 SPD SuiteSparse matrices of
// Table 1, in the paper's order. The real matrices (20M–114M nonzeros) are
// not redistributable nor tractable here; each stand-in is a PDE
// discretization chosen to reproduce the original's *class* of behaviour in
// the paper's experiments (see DESIGN.md §2):
//
//   - Structural/shell matrices (Flan_1565, audikw_1, ldoor, boneS10,
//     inline_1, msdoor, bone010) are plate/biharmonic mixtures: SPD with
//     positive off-diagonals, so Block Jacobi diverges once subdomains are
//     small — the dominant behaviour in Table 2 and Figure 9.
//   - Geo_1438 and Hook_1498 get a weak plate admixture: Block Jacobi
//     initially converges (reaches 0.1) but diverges if run further, as in
//     Figure 7.
//   - Flow/geomechanics matrices (Serena, Emilia_923, Fault_639, StocF-1465)
//     are 3D 7-point problems with jumps/anisotropy plus a plate admixture.
//   - af_5_k101 is a plain FEM sheet (an M-matrix): the one case where
//     Block Jacobi never diverges.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{
			Name: "Flan_1565", Kind: "3D steel flange, shell/solid elements",
			PaperNNZ: 114165372, PaperN: 1564794,
			Gen: func() *sparse.CSR { return PlateMix3D(26, 26, 26, 0.8, 1) },
		},
		{
			Name: "audikw_1", Kind: "automotive crankshaft, solid elements",
			PaperNNZ: 77651847, PaperN: 943695,
			Gen: func() *sparse.CSR { return PlateMix3D(24, 24, 24, 1, 1) },
		},
		{
			Name: "Serena", Kind: "gas reservoir, heterogeneous 3D flow",
			PaperNNZ: 64122743, PaperN: 1382121,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(Poisson3D(24, 24, 24, LognormalCoeff(24, 24, 24, 1.5, 101), 1, 1, 1), 1, 1)
			},
		},
		{
			Name: "Geo_1438", Kind: "geomechanical model, heterogeneous medium",
			PaperNNZ: 60169842, PaperN: 1371480,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(Poisson3D(22, 22, 22, LognormalCoeff(22, 22, 22, 1.0, 1465), 1, 1, 1), 0.5, 1)
			},
		},
		{
			Name: "Hook_1498", Kind: "steel hook, shell with material interface",
			PaperNNZ: 59344451, PaperN: 1468023,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(QuadrantJump2D(160, 64, 10), 1, 1)
			},
		},
		{
			Name: "bone010", Kind: "trabecular bone micro-FE",
			PaperNNZ: 47851783, PaperN: 986703,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(CheckerJump3D(22, 22, 22, 4, 50), 1, 1)
			},
		},
		{
			Name: "ldoor", Kind: "large door, thin stiffened shell",
			PaperNNZ: 42451151, PaperN: 909537,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(CheckerJump3D(40, 32, 8, 4, 20), 0.15, 1)
			},
		},
		{
			Name: "boneS10", Kind: "bone with solid elements",
			PaperNNZ: 40878708, PaperN: 914898,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(CheckerJump3D(20, 20, 20, 5, 20), 0.15, 1)
			},
		},
		{
			Name: "Emilia_923", Kind: "geomechanical reservoir, strong anisotropy",
			PaperNNZ: 40359114, PaperN: 908712,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(Poisson3D(22, 22, 22, nil, 1, 1, 50), 0.3, 1)
			},
		},
		{
			Name: "inline_1", Kind: "inline skate frame, shell",
			PaperNNZ: 36816170, PaperN: 503712,
			Gen: func() *sparse.CSR { return PlateMix2D(104, 104, 1, 0) },
		},
		{
			Name: "Fault_639", Kind: "faulted gas reservoir",
			PaperNNZ: 27224065, PaperN: 616923,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(FaultJump3D(20, 20, 20, 1000), 0.02, 1)
			},
		},
		{
			Name: "StocF-1465", Kind: "stochastic flow, lognormal permeability",
			PaperNNZ: 20976285, PaperN: 1436033,
			Gen: func() *sparse.CSR {
				return sparse.SquarePlus(Poisson3D(23, 23, 23, LognormalCoeff(23, 23, 23, 1.2, 1465), 1, 1, 1), 0.5, 1)
			},
		},
		{
			Name: "msdoor", Kind: "medium-size door, thin shell",
			PaperNNZ: 19162085, PaperN: 404785,
			Gen: func() *sparse.CSR { return PlateMix2D(120, 48, 1, 0.2) },
		},
		{
			Name: "af_5_k101", Kind: "sheet metal forming, FEM M-matrix",
			PaperNNZ: 17550675, PaperN: 503625,
			Gen: func() *sparse.CSR { return FEM2D(78, 0.2, 101) },
		},
	}
}

// SuiteByName returns the entry with the given name.
func SuiteByName(name string) (SuiteEntry, bool) {
	for _, e := range Suite() {
		if e.Name == name {
			return e, true
		}
	}
	return SuiteEntry{}, false
}

// SuiteNames returns the matrix names in Table 1 order.
func SuiteNames() []string {
	s := Suite()
	names := make([]string, len(s))
	for i, e := range s {
		names[i] = e.Name
	}
	return names
}
