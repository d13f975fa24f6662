package problem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"southwell/internal/sparse"
)

// csrHash is SHA-256 over a matrix's RowPtr, Col and the IEEE bits of Val,
// each entry a little-endian uint64, in that order.
func csrHash(a *sparse.CSR) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range a.RowPtr {
		put(uint64(v))
	}
	for _, v := range a.Col {
		put(uint64(v))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteMatricesGolden pins every generated matrix bit for bit: the 14
// suite stand-ins as Gen returns them (unscaled; most are α·L² + β·L of a
// stencil L, built by sparse.SquarePlus), Poisson2D(256,256), and each
// stencil and plate generator at small and degenerate sizes. The suite and
// Poisson2D(256,256) hashes were captured before Mul and Add sized their
// outputs up front, the others before the stencils were written straight
// into CSR and SquarePlus replaced Mul and Add; every results/*.txt table
// and the end-to-end benchmark sit on these matrices.
func TestSuiteMatricesGolden(t *testing.T) {
	want := map[string]string{
		"Flan_1565":          "4ad246b76d01afed6515b1294d52204767e62f3288c172fd0569b7ed229b00cb",
		"audikw_1":           "ea612578b2f270a46aa63b8aaed9bc93ee68090f98f05b5f6d8b63ef2f6ee6bf",
		"Serena":             "658084426a0cc6cb525d7e15158da420dec4716dedcf42bdcc786c850807ac96",
		"Geo_1438":           "3f53f8a19a6582cdc7fbe4b5cab8edddd95920704f0b278770af35f368e36be5",
		"Hook_1498":          "53254d0b8da87ec4727cf6f0bcc5506b663cf994e550249b0c38e81a5b97cd51",
		"bone010":            "a4bf4394c121cbb2d7eec8dcb6246fc72367678f615c812e7d5fdd3b6cbc03bc",
		"ldoor":              "e17fffdfd4534e6cffddc38d688ca8026538112f4f654bc493befd9c8e6e0137",
		"boneS10":            "453e9e3a3e9d2b557fb7c27bbb3f052fdb96866760dc57c45d81c828836cee65",
		"Emilia_923":         "9eb891afa42b68c24b8b82674613df8c5df1b6af587d4bd2eb44dee6a2499e13",
		"inline_1":           "55d1670b20b28fa050f2a1f390e40d0bbe7c9ff29413798e889d49fc41ef585f",
		"Fault_639":          "04ba83e9f19e6caf7b31af7378e68d7889da36a85a7bf9375666a33af07e8fac",
		"StocF-1465":         "f7b4aab68d82dfe7e3564d181b8a03f6b6f3d2e4d7541f5f5887b66da6bd710a",
		"msdoor":             "7d8ea0930f53adf3813e67aebfbfbcc3a01cc309773c8ae2b7368f5b775ead3c",
		"af_5_k101":          "ab2e56175558fc83d7510a5a6480f49246040116888a278c9aa1ca555da4ae6b",
		"Poisson2D(256,256)": "ada629769f786b9066e47c7e5d828f11feb79b4ff33e2d2364077dd53b1a12f6",

		"Aniso2D(20,13,0.01)":         "480569a3ee3976367cc3567edc97094bd1607f8eb0fc2187ac51e95b239faf32",
		"Aniso2D(20,13,0)":            "0217f5d031466541df00f978796320413c0ff2cbf6b7033c0a5fbe9dbde62a1c", // x-couplings exactly zero, dropped
		"Poisson3D(9,7,5)":            "af6a53a71f8f1e4a41f0bf9913c847c2e8f876d4c709f5eabd4082616284f593",
		"Poisson3D(9,7,5,aniso)":      "73be35dc987cee391366dc36642c685a660b3e84f325452e5f670088d654b750",
		"Poisson3D(9,7,5,lognormal)":  "42117f623a67fe368aa20eb1aca2f9e3681525446a8627cc3476b246ec0cffd9",
		"QuadrantJump2D(20,13,10)":    "4547af81b484e1383442e240cee4b67bcace9388c8b62339ece48978e2399094",
		"CheckerJump3D(12,10,8,4,50)": "17739facfae62d0d7c3d71603f577b234a63f81574b221b80675876874c858c6",
		"FaultJump3D(10,9,8,1000)":    "027baa81bdfcc5f69fab601da8e17a522a84298d075bdbb52c898d8507704481",
		"Biharmonic2D(16,16)":         "551b2fbff11e8d9dc322986cd299f72570f05abe63613103a750bad9357bfe46",
		"Biharmonic2D(40,31)":         "24ce9d60e121c1d47948e87522135ec1f9c2535e4808a744c9a00e78bf45fd3a",
		"PlateMix2D(20,13,1,0.2)":     "1969e324767a79545c71b7ee5d8d42b4d10fbe7858a8f7eddbb980ce018dbc1d",
		"PlateMix3D(9,7,5,0.8,1)":     "878546908d3f7f5620071b2c601edc523c86fda53b54f5987dafbe76f41e1b3e",
		"Poisson2D(1,1)":              "5a47987b6898fbd0aab22ae3c109883ebf1bd9978045c8d0e9ad8fd16f5129cd",
		"Poisson2D(1,7)":              "bdc3c0ad63c3a1f9bf1776e90abe11f236af7bb5f29deea962e0cbdaf1c8d767",
		"Poisson3D(1,1,5)":            "27eb51d0e48ed4f5cc6152bfcf1dc0ed5a4c13375bece94881514614dbc0a546",
		"PlateMix2D(1,7,1,1)":         "70b44db06a68ab5672d2836f8c49c39b2908e6828b29f617a3f2d8e5421f2e10",
		"PlateMix3D(1,1,5,1,1)":       "a15917eff52ffb8a7f1db812d7417c9f3ed7c03606a2f79fad42c2a29575ab12",
	}
	gens := map[string]func() *sparse.CSR{
		"Poisson2D(256,256)":          func() *sparse.CSR { return Poisson2D(256, 256) },
		"Aniso2D(20,13,0.01)":         func() *sparse.CSR { return Aniso2D(20, 13, 0.01) },
		"Aniso2D(20,13,0)":            func() *sparse.CSR { return Aniso2D(20, 13, 0) },
		"Poisson3D(9,7,5)":            func() *sparse.CSR { return Poisson3D(9, 7, 5, nil, 1, 1, 1) },
		"Poisson3D(9,7,5,aniso)":      func() *sparse.CSR { return Poisson3D(9, 7, 5, nil, 0.5, 2, 50) },
		"Poisson3D(9,7,5,lognormal)":  func() *sparse.CSR { return Poisson3D(9, 7, 5, LognormalCoeff(9, 7, 5, 1.5, 101), 1, 1, 1) },
		"QuadrantJump2D(20,13,10)":    func() *sparse.CSR { return QuadrantJump2D(20, 13, 10) },
		"CheckerJump3D(12,10,8,4,50)": func() *sparse.CSR { return CheckerJump3D(12, 10, 8, 4, 50) },
		"FaultJump3D(10,9,8,1000)":    func() *sparse.CSR { return FaultJump3D(10, 9, 8, 1000) },
		"Biharmonic2D(16,16)":         func() *sparse.CSR { return Biharmonic2D(16, 16) },
		"Biharmonic2D(40,31)":         func() *sparse.CSR { return Biharmonic2D(40, 31) },
		"PlateMix2D(20,13,1,0.2)":     func() *sparse.CSR { return PlateMix2D(20, 13, 1, 0.2) },
		"PlateMix3D(9,7,5,0.8,1)":     func() *sparse.CSR { return PlateMix3D(9, 7, 5, 0.8, 1) },
		"Poisson2D(1,1)":              func() *sparse.CSR { return Poisson2D(1, 1) },
		"Poisson2D(1,7)":              func() *sparse.CSR { return Poisson2D(1, 7) },
		"Poisson3D(1,1,5)":            func() *sparse.CSR { return Poisson3D(1, 1, 5, nil, 1, 1, 1) },
		"PlateMix2D(1,7,1,1)":         func() *sparse.CSR { return PlateMix2D(1, 7, 1, 1) },
		"PlateMix3D(1,1,5,1,1)":       func() *sparse.CSR { return PlateMix3D(1, 1, 5, 1, 1) },
	}
	for _, e := range Suite() {
		gens[e.Name] = e.Gen
	}
	if len(gens) != len(want) {
		t.Fatalf("%d generators for %d hashes", len(gens), len(want))
	}
	for name, gen := range gens {
		a := gen()
		if got := csrHash(a); got != want[name] {
			t.Errorf("%s: hash %s, want %s", name, got, want[name])
		}
		if len(a.Col) != cap(a.Col) || len(a.Val) != cap(a.Val) {
			t.Errorf("%s: Col and Val hold %d entries in %d and %d slots, want exact-size arrays", name, len(a.Col), cap(a.Col), cap(a.Val))
		}
	}
}
