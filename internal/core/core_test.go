package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"southwell/internal/dmem"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// scaledSystem scales a to unit diagonal in place and returns the paper's
// standard system on it: random x with b = 0 and ‖r⁰‖₂ = 1.
func scaledSystem(t *testing.T, a *sparse.CSR, seed int64) (b, x []float64) {
	t.Helper()
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	return problem.ZeroBSystem(a, seed)
}

func TestSolveScalarAllMethods(t *testing.T) {
	for _, m := range ScalarMethods() {
		a := problem.Poisson2D(15, 15)
		b, x := scaledSystem(t, a, 2)
		tr, err := SolveScalar(a, b, x, ScalarOptions{Method: m, MaxRelax: 2 * a.N})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if tr.Final().ResNorm >= 1 {
			t.Errorf("%s made no progress", m)
		}
	}
	a := problem.Poisson2D(4, 4)
	if _, err := SolveScalar(a, make([]float64, a.N), make([]float64, a.N), ScalarOptions{Method: "nope"}); err == nil {
		t.Error("unknown scalar method accepted")
	}
}

// TestSolveScalarRejectsAsymmetric: every scalar method propagates a
// relaxation of row i through column i by reading row i, so a matrix whose
// pattern is not symmetric is an error, never a silently wrong run or a
// panic. Entry (0, 2) has no (2, 0).
func TestSolveScalarRejectsAsymmetric(t *testing.T) {
	a := &sparse.CSR{N: 3, RowPtr: []int32{0, 3, 5, 6}, Col: []int32{0, 1, 2, 0, 1, 2},
		Val: []float64{1, -0.25, -0.25, -0.25, 1, 1}}
	if err := a.Validate(); err != nil {
		t.Fatalf("the test matrix itself is malformed: %v", err)
	}
	for _, m := range ScalarMethods() {
		t.Run(string(m), func(t *testing.T) {
			x := []float64{1, 2, 3}
			_, err := SolveScalar(a, make([]float64, a.N), x, ScalarOptions{Method: m})
			if err == nil || !strings.Contains(err.Error(), "not structurally symmetric") {
				t.Errorf("err = %v, want one naming the asymmetry", err)
			}
			if x[0] != 1 || x[1] != 2 || x[2] != 3 {
				t.Errorf("x = %v: the rejected solve moved it", x)
			}
		})
	}
}

func TestSolveDistributedMethods(t *testing.T) {
	for _, m := range []DistMethod{BlockJacobi, ParallelSWD, DistSWD, Piggyback2016} {
		a := problem.Poisson2D(16, 16)
		b, x := scaledSystem(t, a, 3)
		res, err := SolveDistributed(a, b, x, DistOptions{Method: m, Ranks: 8, Steps: 10})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.History) == 0 || res.P != 8 {
			t.Errorf("%s: bad result shape", m)
		}
	}
	a := problem.Poisson2D(8, 8)
	b, x := scaledSystem(t, a, 4)
	if _, err := SolveDistributed(a, b, x, DistOptions{Method: "nope", Ranks: 4}); err == nil {
		t.Error("unknown distributed method accepted")
	}
	if _, err := SolveDistributed(a, b, x, DistOptions{Method: DistSWD}); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestSolveDistributedCustomPartition: a caller's own partition goes in
// through a Setup built on it.
func TestSolveDistributedCustomPartition(t *testing.T) {
	a := problem.Poisson2D(10, 10)
	b, x := scaledSystem(t, a, 5)
	part := make([]int, a.N)
	for i := range part {
		part[i] = i % 4
	}
	l, err := dmem.NewLayout(a, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dmem.NewSetup(l, dmem.LocalGS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDistributed(a, b, x, DistOptions{Method: DistSWD, Ranks: 4, Steps: 5, Setup: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final().Step != 5 {
		t.Errorf("steps = %d", res.Final().Step)
	}
}

// TestSolveRejectsMismatchedSystem: both entry points take their system from
// outside the program and return an error for a nil matrix or a vector of
// the wrong length instead of panicking inside a kernel.
func TestSolveRejectsMismatchedSystem(t *testing.T) {
	a := problem.Poisson2D(8, 8)
	b, x := scaledSystem(t, a, 6)
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		b, x []float64
	}{
		{"nil matrix", nil, b, x},
		{"short b", a, b[:3], x},
		{"short x", a, b, x[:5]},
		{"long b", a, append(b[:len(b):len(b)], 0), x},
	} {
		if _, err := SolveScalar(c.a, c.b, c.x, ScalarOptions{Method: GaussSeidel}); err == nil {
			t.Errorf("SolveScalar, %s: accepted", c.name)
		}
		if _, err := SolveDistributed(c.a, c.b, c.x, DistOptions{Method: DistSWD, Ranks: 4}); err == nil {
			t.Errorf("SolveDistributed, %s: accepted", c.name)
		}
	}
}

// TestSolveRejectsOutOfRangeOptions: an option outside its range is an
// error naming the field, in one line, instead of a run under some other
// value (a negative Steps ran 50 steps, a negative MaxRelax one sweep) or a
// run no caller could have meant (a NaN target, a delay probability
// outside [0, 1]). A non-finite entry of b or x is an error naming its
// first index, for every method: DS, PS and pb16 stopped after two steps
// at a NaN norm with no verdict, BJ and the scalar methods ran to NaN.
func TestSolveRejectsOutOfRangeOptions(t *testing.T) {
	a := problem.Poisson2D(8, 8)
	b, x := scaledSystem(t, a, 6)
	nan := math.NaN()
	check := func(label string, err error, field string) {
		t.Helper()
		switch {
		case err == nil:
			t.Errorf("%s: accepted", label)
		case !strings.Contains(err.Error(), field):
			t.Errorf("%s: error %q does not name %s", label, err, field)
		case strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error is not one line: %q", label, err)
		}
	}
	for _, c := range []struct {
		name, field string
		opt         ScalarOptions
	}{
		{"negative MaxRelax", "MaxRelax", ScalarOptions{MaxRelax: -1}},
		{"negative TargetNorm", "TargetNorm", ScalarOptions{TargetNorm: -0.5}},
		{"NaN TargetNorm", "TargetNorm", ScalarOptions{TargetNorm: nan}},
	} {
		c.opt.Method = GaussSeidel
		_, err := SolveScalar(a, b, x, c.opt)
		check("SolveScalar, "+c.name, err, c.field)
	}
	for _, c := range []struct {
		name, field string
		opt         DistOptions
	}{
		{"negative Steps", "Steps", DistOptions{Steps: -1}},
		{"negative Target", "Target", DistOptions{Target: -0.1}},
		{"NaN Target", "Target", DistOptions{Target: nan}},
		{"negative DelayProb", "DelayProb", DistOptions{Faults: rma.DelayPlan(1, -0.1, 3)}},
		{"DelayProb above 1", "DelayProb", DistOptions{Faults: rma.DelayPlan(1, 1.5, 3)}},
		{"NaN DelayProb", "DelayProb", DistOptions{Faults: rma.DelayPlan(1, nan, 3)}},
	} {
		c.opt.Method, c.opt.Ranks = DistSWD, 4
		_, err := SolveDistributed(a, b, x, c.opt)
		check("SolveDistributed, "+c.name, err, c.field)
	}
	for _, c := range []struct {
		name, field string
		edit        func(b, x []float64)
	}{
		{"NaN in x", "x[5]", func(b, x []float64) { x[5] = nan }},
		{"+Inf in b", "b[3]", func(b, x []float64) { b[3] = math.Inf(1) }},
		{"two in x", "x[2]", func(b, x []float64) { x[2], x[7] = math.Inf(-1), nan }},
	} {
		bb, xx := slices.Clone(b), slices.Clone(x)
		c.edit(bb, xx)
		for _, m := range ScalarMethods() {
			_, err := SolveScalar(a, bb, xx, ScalarOptions{Method: m})
			check(fmt.Sprintf("SolveScalar %s, %s", m, c.name), err, c.field)
		}
		for _, m := range []DistMethod{BlockJacobi, ParallelSWD, DistSWD, Piggyback2016} {
			_, err := SolveDistributed(a, bb, xx, DistOptions{Method: m, Ranks: 4})
			check(fmt.Sprintf("SolveDistributed %s, %s", m, c.name), err, c.field)
		}
	}
}

// TestSolveDistributedSetupMismatch: a Setup built for another matrix, rank
// count or local solver is rejected, and the message names what differs.
func TestSolveDistributedSetupMismatch(t *testing.T) {
	a := problem.Poisson2D(12, 12)
	b, x := scaledSystem(t, a, 7)
	l, err := dmem.NewLayout(a, partition.Partition(a, 4, partition.Options{Seed: 1}), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dmem.NewSetup(l, dmem.LocalDirect)
	if err != nil {
		t.Fatal(err)
	}
	ok := DistOptions{Method: DistSWD, Ranks: 4, Steps: 3, Setup: s, Local: dmem.LocalDirect}
	if _, err := SolveDistributed(a, b, x, ok); err != nil {
		t.Fatalf("matching Setup rejected: %v", err)
	}
	other := problem.Poisson2D(12, 12)
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		edit func(*DistOptions)
		want []string
	}{
		{"matrix", other, func(*DistOptions) {}, []string{"matrix"}},
		{"ranks", a, func(o *DistOptions) { o.Ranks = 8 }, []string{"4 ranks", "want 8"}},
		{"local solver", a, func(o *DistOptions) { o.Local = dmem.LocalGS }, []string{"local solver direct", "want gs"}},
	} {
		opt := ok
		c.edit(&opt)
		_, err := SolveDistributed(c.a, b, x, opt)
		if err == nil {
			t.Errorf("%s mismatch accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s mismatch: error %q does not name %q", c.name, err, w)
			}
		}
	}
}

// TestSolveDistributedRejectsUnknownLocalSolver: a local solver outside
// {LocalGS, LocalDirect} — 2 was the retired per-rank dense/sparse crossover —
// is an error from dmem.NewSetup and from a solve that builds its own Setup,
// never a silent Gauss-Seidel run.
func TestSolveDistributedRejectsUnknownLocalSolver(t *testing.T) {
	a := problem.Poisson2D(12, 12)
	b, x := scaledSystem(t, a, 7)
	l, err := dmem.NewLayout(a, partition.Partition(a, 4, partition.Options{Seed: 1}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, local := range []dmem.LocalSolver{2, 7, -1} {
		want := fmt.Sprintf("LocalSolver(%d)", int(local))
		if _, err := dmem.NewSetup(l, local); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewSetup(%s): err = %v, want one naming it", want, err)
		}
		opt := DistOptions{Method: DistSWD, Ranks: 4, Steps: 3, Local: local}
		if _, err := SolveDistributed(a, b, x, opt); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SolveDistributed(Local: %s): err = %v, want one naming it", want, err)
		}
	}
}

func TestParseDistMethod(t *testing.T) {
	cases := map[string]DistMethod{
		"bj": BlockJacobi, "blockjacobi": BlockJacobi,
		"ps": ParallelSWD, "sos_ps": ParallelSWD,
		"ds": DistSWD, "sos_sds": DistSWD, "distsw": DistSWD,
		"pb16": Piggyback2016,
	}
	for s, want := range cases {
		got, err := ParseDistMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseDistMethod(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDistMethod("zzz"); err == nil {
		t.Error("bad method accepted")
	}
}
