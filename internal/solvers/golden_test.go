package solvers

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// traceHash hashes every field of every record of tr, floats by their bits,
// and then the iterate x, and returns the first 8 bytes in hex.
func traceHash(tr *Trace, x []float64) string {
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(tr.Steps)))
	for _, s := range tr.Steps {
		put(uint64(s.Step))
		put(uint64(s.Relaxations))
		put(uint64(s.CumRelax))
		put(math.Float64bits(s.ResNorm))
		put(uint64(s.SolveMsgs))
		put(uint64(s.ResMsgs))
	}
	for _, v := range x {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenMethods is the column order of traceGolden.
var goldenMethods = []struct {
	name string
	run  runner
}{
	{"Jacobi", Jacobi}, {"GS", GaussSeidel}, {"MCGS", MulticolorGS},
	{"SW", SequentialSouthwell}, {"ParSW", ParallelSouthwell}, {"DistSW", DistributedSouthwell},
}

// goldenOptions are the option sets of traceGolden, as functions of n.
var goldenOptions = []struct {
	name string
	opt  func(n int) Options
}{
	{"default", func(int) Options { return Options{} }},
	{"MaxRelax", func(n int) Options { return Options{MaxRelax: 2*n + 7} }},
	{"TargetNorm", func(n int) Options { return Options{MaxRelax: 20 * n, TargetNorm: 0.2} }},
	{"MaxSteps", func(n int) Options { return Options{MaxRelax: 20 * n, MaxSteps: 13} }},
	{"ExactBudget", func(n int) Options { return Options{MaxRelax: 2*n + 5, ExactBudget: true, Seed: 3} }},
	{"StartAtTarget", func(n int) Options { return Options{MaxRelax: n, TargetNorm: 1e300} }},
}

// traceGolden pins every scalar trace and final iterate bit for bit: one
// row per system and option set, one hash per method in goldenMethods'
// order. The hashes were taken on the six hand-written step loops that
// the one driver (state.run) replaced.
var traceGolden = map[string][6]string{
	"fig2/default":            {"18aa6ada5d70fb6a", "f90e3e536f4512c2", "89342cca2857c334", "314dafc5ac08e8b6", "23c5912a3ae64c78", "1443326242c9c442"},
	"fig2/MaxRelax":           {"c75d24246c34bbd5", "99ac3666a0ded2a6", "68610c103874cdb1", "5d58957f69962d2a", "e4e277535c8fdb9d", "8f34e3821bdcb6e8"},
	"fig2/TargetNorm":         {"35a230349f010345", "dea1d3a65447719e", "3ffa0fe59e8a6596", "07ddbcdba61cced5", "8150c9598726bb3c", "60bb7ed309e2080f"},
	"fig2/MaxSteps":           {"ee71d5b79ae72bd1", "b2492723f73d4d1e", "3ed6def8ac176d4c", "04b1a12bfb5266e7", "d989af3fe5e2caf1", "c50d2ffcc9d1cac2"},
	"fig2/ExactBudget":        {"c75d24246c34bbd5", "659f747c191881eb", "68610c103874cdb1", "7a138e2727348e46", "e4e277535c8fdb9d", "4edd433d2f465910"},
	"fig2/StartAtTarget":      {"fad0b70b17880969", "fad0b70b17880969", "fad0b70b17880969", "fad0b70b17880969", "fad0b70b17880969", "fad0b70b17880969"},
	"poisson20/default":       {"9ccb69389f5dc5c5", "dcb778a1aba8a51f", "50d555214da9952d", "b789d977da46afda", "c69c07ac72a08e17", "bb967e3e3eea4e95"},
	"poisson20/MaxRelax":      {"f2461716111355fc", "96182e8abe7a5849", "7b6597b9af485817", "dd4642fe69ed4a3b", "989c9a5381a3e2d3", "7aa4cbc902b2b5ee"},
	"poisson20/TargetNorm":    {"8f9e6e4c18e8e961", "6a6d4a2d6b30a333", "2d6916982ab9109f", "fa59c2511ab4f9e6", "0a4642acaed0e24c", "8845eabb59a0bc23"},
	"poisson20/MaxSteps":      {"b25b56ad23104181", "83be220409e68931", "1d9ee3445b218ff8", "39b2caabe1d838c5", "c769a37a7576e11e", "45e6ecc6e5f74a88"},
	"poisson20/ExactBudget":   {"f2461716111355fc", "c3155a694728472a", "7b6597b9af485817", "79bf7db2506fb1c5", "989c9a5381a3e2d3", "abcd4eb75210dbb2"},
	"poisson20/StartAtTarget": {"125cc4a765aed3bc", "125cc4a765aed3bc", "125cc4a765aed3bc", "125cc4a765aed3bc", "125cc4a765aed3bc", "125cc4a765aed3bc"},
}

// TestTraceHashesGolden runs the six methods under every option set of
// goldenOptions on Figure 2's FEM system and a scaled 20×20 Poisson system,
// each from RandomBSystem, and holds each trace and final x to its hash.
func TestTraceHashesGolden(t *testing.T) {
	systems := []struct {
		name string
		a    func() *sparse.CSR
	}{
		{"fig2", problem.Fig2FEM},
		{"poisson20", func() *sparse.CSR { return problem.Poisson2D(20, 20) }},
	}
	for _, sys := range systems {
		a := sys.a()
		b, x0 := testSystem(t, a, 17)
		for _, o := range goldenOptions {
			key := sys.name + "/" + o.name
			var got [6]string
			for m, meth := range goldenMethods {
				x := append([]float64(nil), x0...)
				got[m] = traceHash(meth.run(a, b, x, o.opt(a.N)), x)
			}
			if want := traceGolden[key]; got != want {
				t.Errorf("%s: hashes\n got %q\nwant %q", key, got, want)
			}
		}
	}
}
