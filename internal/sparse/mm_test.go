package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSym(30, 0.2, rng)
	var buf bytes.Buffer
	if err := writeMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != a.N || b.NNZ() != a.NNZ() {
		t.Fatalf("round trip shape: n=%d nnz=%d, want n=%d nnz=%d", b.N, b.NNZ(), a.N, a.NNZ())
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || math.Abs(a.Val[k]-b.Val[k]) > 1e-15 {
			t.Fatalf("round trip entry %d mismatch", k)
		}
	}
}

// writeMatrixMarket writes the matrix in "coordinate real general" format.
func writeMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.N, a.N, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.Col[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 2 2.0
3 3 2.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("symmetric entry not mirrored")
	}
	if a.NNZ() != 5 {
		t.Errorf("nnz = %d, want 5", a.NNZ())
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Error("pattern values should be 1")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n",
		"nonsquare":      "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n",
		"short entries":  "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"range":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad row index":  "%%MatrixMarket matrix coordinate real general\n2 2 1\nq 1 1\n",
		"truncated line": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// FuzzReadMatrixMarket: malformed input is an error, never a panic, and a
// matrix returned passes Validate. The committed seed corpus
// (testdata/fuzz/FuzzReadMatrixMarket) holds headers declaring a negative
// entry count, negative dimensions and 4·10⁹ entries, a pattern file, a
// symmetric file, and duplicates that sum to +Inf; plain `go test` runs the
// seeds. A header may legally declare up to 2³¹−1 rows, and the matrix then
// takes memory in proportion, so a -fuzz run needs a memory limit.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("ReadMatrixMarket returned an invalid matrix: %v", err)
		}
	})
}
