package dmem_test

import (
	"math"
	"slices"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/sparse"
)

// gatePart is the part vector every refusal row is laid out under: rows
// 0 and 2 on rank 0, rows 1 and 3 on rank 1.
var gatePart = []int{0, 1, 0, 1}

// pathCSR returns the 4×4 path with diagonal 4 and couplings −1, which
// passes the gate; each refusal row breaks one copy of it.
func pathCSR() *sparse.CSR {
	return &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 5, 8, 10},
		Col: []int32{0, 1, 0, 1, 2, 1, 2, 3, 2, 3},
		Val: []float64{4, -1, -1, 4, -1, -1, 4, -1, -1, 4}}
}

// refusals is the one table of inputs that sparse.CSR.Relaxable refuses,
// each with the gate's text. SolveScalar, SolveDistributed and NewLayout
// must refuse every row with that text behind their package prefix. The
// first three rows panicked in NewLayout before it ran the gate (a short
// Val with spare capacity was read past its length and accepted, hence
// the clipped slice).
var refusals = []struct {
	name string
	a    func() *sparse.CSR
	want string
}{
	{"column≥n", func() *sparse.CSR { a := pathCSR(); a.Col[4] = 5; return a },
		"row 1: column 5 out of range"},
	{"short RowPtr", func() *sparse.CSR { a := pathCSR(); a.RowPtr = a.RowPtr[:4]; return a },
		"RowPtr length 4, want 5"},
	{"short Val", func() *sparse.CSR { a := pathCSR(); a.Val = a.Val[:9:9]; return a },
		"nnz mismatch: RowPtr[N]=10 len(Col)=10 len(Val)=9"},
	{"NaN", func() *sparse.CSR { a := pathCSR(); a.Val[4] = math.NaN(); return a },
		"row 1 col 2: non-finite value"},
	{"+Inf", func() *sparse.CSR { a := pathCSR(); a.Val[0] = math.Inf(1); return a },
		"row 0 col 0: non-finite value"},
	{"-Inf", func() *sparse.CSR { a := pathCSR(); a.Val[8] = math.Inf(-1); return a },
		"row 3 col 2: non-finite value"},
	{"missing diagonal", func() *sparse.CSR {
		return &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 5, 7, 9},
			Col: []int32{0, 1, 0, 1, 2, 1, 3, 2, 3},
			Val: []float64{4, -1, -1, 4, -1, -1, -1, -1, 4}}
	}, "row 2 has no diagonal entry"},
	{"zero diagonal", func() *sparse.CSR { a := pathCSR(); a.Val[9] = 0; return a },
		"row 3 has a zero diagonal entry"},
	{"repeated column", func() *sparse.CSR {
		return &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 6, 9, 11},
			Col: []int32{0, 1, 0, 1, 1, 2, 1, 2, 3, 2, 3},
			Val: []float64{4, -1, -1, 2, 2, -1, -1, 4, -1, -1, 4}}
	}, "row 1: columns not strictly increasing at position 4"},
	{"asymmetric", func() *sparse.CSR {
		return &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 4, 7, 9},
			Col: []int32{0, 1, 1, 2, 1, 2, 3, 2, 3},
			Val: []float64{4, -1, 4, -1, -1, 4, -1, -1, 4}}
	}, "entry (0, 1) has no mirror (1, 0): the matrix is not structurally symmetric"},
}

// TestEntryPointsShareOneGate: the scalar path, the distributed path and
// the layout take A from outside and refuse, through the one gate, every
// row of the refusal table with the same text, each behind its own package
// prefix, and leave x as it was.
func TestEntryPointsShareOneGate(t *testing.T) {
	if err := pathCSR().Relaxable(nil); err != nil {
		t.Fatalf("the base matrix is refused: %v", err)
	}
	for _, tc := range refusals {
		t.Run(tc.name, func(t *testing.T) {
			check := func(who string, err error, want string) {
				t.Helper()
				if err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %q", who, err, want)
				}
			}
			check("Relaxable", tc.a().Relaxable(nil), tc.want)
			_, err := dmem.NewLayout(tc.a(), gatePart, 2)
			check("NewLayout", err, "dmem: "+tc.want)
			b := []float64{1, 2, 3, 4}
			for _, m := range []core.ScalarMethod{core.GaussSeidel, core.DistributedSW} {
				x := make([]float64, 4)
				_, err := core.SolveScalar(tc.a(), b, x, core.ScalarOptions{Method: m})
				check("SolveScalar/"+string(m), err, "core: "+tc.want)
				if x[0] != 0 || x[1] != 0 || x[2] != 0 || x[3] != 0 {
					t.Errorf("SolveScalar/%s moved x to %v", m, x)
				}
			}
			for _, local := range []dmem.LocalSolver{dmem.LocalGS, dmem.LocalDirect} {
				x := make([]float64, 4)
				_, err := core.SolveDistributed(tc.a(), b, x, core.DistOptions{Method: core.DistSWD, Ranks: 2, Local: local})
				check("SolveDistributed/"+local.String(), err, "core: "+tc.want)
			}
		})
	}
}

// Value codes of fuzzCSR: every other byte is its int8 value.
const (
	codeNaN    = 0x7f
	codePosInf = 0x7e
	codeNegInf = 0x80
)

// fuzzCSR decodes data into a raw CSR of order n ≤ 12, whose arrays need
// not agree with n or with each other, and a valid part vector over p ≤ n
// ranks (rank r owns row r, so none is empty). It reads one byte per field,
// zero once data runs out: n − 1 (mod 12), p − 1 (mod n), the ranks of
// rows p … n−1 (mod p), the lengths of RowPtr, Col and Val, then their
// entries — RowPtr and Col entries as int8, values as int8 but for the
// three non-finite codes.
func fuzzCSR(data []byte) (*sparse.CSR, []int, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%12
	p := 1 + int(next())%n
	part := make([]int, n)
	for i := range part {
		part[i] = i
		if i >= p {
			part[i] = int(next()) % p
		}
	}
	a := &sparse.CSR{N: n, RowPtr: make([]int32, next()), Col: make([]int32, next()), Val: make([]float64, next())}
	for k := range a.RowPtr {
		a.RowPtr[k] = int32(int8(next()))
	}
	for k := range a.Col {
		a.Col[k] = int32(int8(next()))
	}
	for k := range a.Val {
		switch b := next(); b {
		case codeNaN:
			a.Val[k] = math.NaN()
		case codePosInf:
			a.Val[k] = math.Inf(1)
		case codeNegInf:
			a.Val[k] = math.Inf(-1)
		default:
			a.Val[k] = float64(int8(b))
		}
	}
	return a, part, p
}

// encodeCSR is fuzzCSR's inverse on the inputs it can express: part must
// put row r on rank r for r < p, and every value must be non-finite or an
// integer in [−127, 125].
func encodeCSR(t testing.TB, a *sparse.CSR, part []int, p int) []byte {
	data := []byte{byte(a.N - 1), byte(p - 1)}
	for _, r := range part[p:] {
		data = append(data, byte(r))
	}
	data = append(data, byte(len(a.RowPtr)), byte(len(a.Col)), byte(len(a.Val)))
	for _, v := range a.RowPtr {
		data = append(data, byte(int8(v)))
	}
	for _, c := range a.Col {
		data = append(data, byte(int8(c)))
	}
	for _, v := range a.Val {
		switch {
		case math.IsNaN(v):
			data = append(data, codeNaN)
		case math.IsInf(v, 1):
			data = append(data, codePosInf)
		case math.IsInf(v, -1):
			data = append(data, codeNegInf)
		case v == math.Trunc(v) && v >= -127 && v <= 125:
			data = append(data, byte(int8(v)))
		default:
			t.Fatalf("encodeCSR: value %g has no code", v)
		}
	}
	return data
}

// FuzzLayoutGate feeds NewLayout raw, mostly malformed matrices — lengths
// that disagree, columns out of range, repeated or unsorted, NaN and ±Inf
// values, missing or zero diagonals, asymmetric patterns — under a valid
// partition. Neither the gate nor NewLayout may panic, and NewLayout must
// refuse exactly what the gate refuses, with the gate's text behind
// "dmem: ". The same matrix goes through core.SolveScalar under one scalar
// method, chosen by len(data) mod 6, with b = 1…n, x₀ = 0 and a budget of
// 2n relaxations: it must return, refuse exactly what the gate refuses
// with the gate's text behind "core: " and x untouched, and otherwise
// number its records 1…k with relaxations summing to the final count. The
// seeds are the refusal table's rows and the base path, padded once to
// each method.
func FuzzLayoutGate(f *testing.F) {
	base := encodeCSR(f, pathCSR(), gatePart, 2)
	for pad := range len(core.ScalarMethods()) {
		f.Add(append(slices.Clone(base), make([]byte, pad)...))
	}
	for _, tc := range refusals {
		data := encodeCSR(f, tc.a(), gatePart, 2)
		if a, _, _ := fuzzCSR(data); a.Relaxable(nil) == nil || a.Relaxable(nil).Error() != tc.want {
			f.Fatalf("%s: the seed decodes to a matrix the gate does not refuse as %q", tc.name, tc.want)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, part, p := fuzzCSR(data)
		gate := a.Relaxable(nil)
		_, err := dmem.NewLayout(a, part, p)
		switch {
		case gate == nil && err != nil:
			t.Fatalf("the gate accepts, NewLayout refuses: %v", err)
		case gate != nil && (err == nil || err.Error() != "dmem: "+gate.Error()):
			t.Fatalf("NewLayout error %v, want %q", err, "dmem: "+gate.Error())
		}

		methods := core.ScalarMethods()
		m := methods[len(data)%len(methods)]
		b, x := make([]float64, a.N), make([]float64, a.N)
		for i := range b {
			b[i] = float64(i + 1)
		}
		tr, err := core.SolveScalar(a, b, x, core.ScalarOptions{Method: m, MaxRelax: 2 * a.N})
		switch {
		case gate == nil && err != nil:
			t.Fatalf("%s: the gate accepts, SolveScalar refuses: %v", m, err)
		case gate != nil && (err == nil || err.Error() != "core: "+gate.Error()):
			t.Fatalf("%s: SolveScalar error %v, want %q", m, err, "core: "+gate.Error())
		case gate != nil && slices.ContainsFunc(x, func(v float64) bool { return v != 0 }):
			t.Fatalf("%s: the refused solve moved x to %v", m, x)
		case gate != nil:
			return
		}
		sum := 0
		for k, rec := range tr.Steps {
			if rec.Step != k+1 {
				t.Fatalf("%s: record %d numbered %d", m, k, rec.Step)
			}
			sum += rec.Relaxations
		}
		if sum != tr.Final().CumRelax {
			t.Fatalf("%s: relaxations sum to %d, final count %d", m, sum, tr.Final().CumRelax)
		}
	})
}
