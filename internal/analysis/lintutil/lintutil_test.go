package lintutil

import "testing"

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"southwell/internal/rma", true},
		{"southwell/internal/dmem", true},
		{"southwell/internal/sparse", true},
		{"southwell/internal/spdirect", true},
		{"internal/rma", true},   // analyzer fixtures
		{"x/internal/rma", true}, // a foreign module laid out the same way
		{"southwell/internal/analysis/x", false},
		{"southwell/internal/analysis", false},
		{"southwell/internal", false},
		{"southwell/cmd/benchtables", false},
		{"southwell/benchmarks/e2e", false},
		{"southwell", false},
		{"myinternal/rma", false}, // "internal" must be a whole path element
		{"other", false},
	}
	for _, c := range cases {
		if got := IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
