package dmem

import (
	"math"
	"math/rand"
	"testing"

	"southwell/internal/problem"
)

// TestComputeNormOverflow: ‖r‖ must come out finite when the squared sum
// overflows but the true norm is representable (|r_i| ≳ 1e154 squares past
// MaxFloat64). The fallback rescales by the max magnitude, two-pass.
func TestComputeNormOverflow(t *testing.T) {
	rs := &rankState{r: []float64{1e200, -1e200}}
	got := rs.computeNorm()
	want := 1e200 * math.Sqrt(2)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("computeNorm overflowed: %g", got)
	}
	if math.Abs(got-want)/want > 1e-15 {
		t.Errorf("computeNorm = %g, want %g", got, want)
	}

	// A single huge component: the norm is exactly that magnitude.
	rs = &rankState{r: []float64{0, 3e180, 0}}
	if got := rs.computeNorm(); got != 3e180 {
		t.Errorf("computeNorm = %g, want 3e180", got)
	}

	// Genuinely infinite input stays infinite — the fallback must not turn
	// a diverged residual into NaN (Inf * 0 in the rescale).
	rs = &rankState{r: []float64{math.Inf(1), 1}}
	if got := rs.computeNorm(); !math.IsInf(got, 1) {
		t.Errorf("computeNorm(Inf component) = %g, want +Inf", got)
	}
}

// TestComputeNormNormalPathBits: on non-overflowing data the fallback must
// never engage — the result is bit-identical to the naive single-pass
// sqrt(Σ r_i²), which is what every recorded history in the repo was built
// from.
func TestComputeNormNormalPathBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		rs := &rankState{r: r}
		s := 0.0
		for _, v := range r {
			s += v * v
		}
		if got, want := rs.computeNorm(), math.Sqrt(s); got != want {
			t.Fatalf("trial %d: computeNorm = %.17g, naive = %.17g", trial, got, want)
		}
	}
}

// TestGlobalNormOverflow: the global norm must be finite wherever the rank
// norms are. With x0 scaled by 1e160 every residual entry squares past
// MaxFloat64, so each rank norm takes computeNorm's fallback, and their
// squares overflow too. Both the initial and the final record must match a
// scaled norm of b − A·x computed here (sparse.ResidualNorm2 overflows
// as well), for every method.
func TestGlobalNormOverflow(t *testing.T) {
	scaledNorm := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			m = math.Max(m, math.Abs(x))
		}
		s := 0.0
		for _, x := range v {
			s += (x / m) * (x / m)
		}
		return m * math.Sqrt(s)
	}
	for name, run := range methods() {
		s, b, x0 := buildCase(t, problem.Poisson2D(20, 20), 16, 5)
		for i := range x0 {
			x0[i] *= 1e160
		}
		res := run(s, b, x0, Config{Steps: 10})
		r := make([]float64, len(b))
		for _, c := range []struct {
			label string
			x     []float64
			got   float64
		}{{"History[0]", x0, res.History[0].ResNorm}, {"Final()", res.X, res.Final().ResNorm}} {
			s.Layout.A.Residual(b, c.x, r)
			want := scaledNorm(r)
			if math.IsInf(c.got, 0) || math.IsNaN(c.got) || math.Abs(c.got-want) > 1e-10*want {
				t.Errorf("%s: %s.ResNorm = %g, want %g", name, c.label, c.got, want)
			}
		}
	}
}
