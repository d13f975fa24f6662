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
// suite stand-ins as Gen returns them (unscaled; most go through sparse.Mul
// and sparse.Add) and Poisson2D(256,256). The hashes were captured before
// Mul and Add sized their outputs up front; every results/*.txt table and
// the end-to-end benchmark sit on these matrices.
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
	}
	for _, e := range Suite() {
		if got := csrHash(e.Gen()); got != want[e.Name] {
			t.Errorf("%s: hash %s, want %s", e.Name, got, want[e.Name])
		}
	}
	if got := csrHash(Poisson2D(256, 256)); got != want["Poisson2D(256,256)"] {
		t.Errorf("Poisson2D(256,256): hash %s, want %s", got, want["Poisson2D(256,256)"])
	}
}
