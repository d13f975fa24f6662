package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.10, 1.9}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its input in place")
	}
	if !near(p10(xs), 1.9) || !near(median(xs), 5.5) {
		t.Errorf("p10 %v median %v", p10(xs), median(xs))
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
	if got := quantile([]float64{3}, 0.1); got != 3 {
		t.Errorf("single value: %v", got)
	}
}

// The pipeline computes spreads with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want 1", got)
	}
	if spread([]float64{4}) != 0 {
		t.Error("one value has no spread")
	}
}
