package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{60, 100, 140, 80, 120}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want verdict
	}{
		{"same", steady, steady, lower, verdictOK},
		{"5% slower is inside the bound", steady, []float64{105, 105, 105}, lower, verdictOK},
		{"20% slower", steady, []float64{120, 121, 119}, lower, verdictWorse},
		{"20% faster", steady, []float64{80, 81, 79}, lower, verdictOK},
		{"higher is better: 20% lower", steady, []float64{80, 81, 79}, higher, verdictWorse},
		{"higher is better: 20% higher", steady, []float64{120, 121, 119}, higher, verdictOK},
		{"spread wider than bound", noisy, []float64{100, 100, 100}, lower, verdictUnresolved},
		{"noisy, but every run of B beats every run of A", noisy, []float64{50, 55, 59}, lower, verdictOK},
		{"noisy and B only mostly better", noisy, []float64{50, 55, 61}, lower, verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if rel, _ := judge([]float64{100}, []float64{110}, lower); !near(rel, 0.10) {
		t.Errorf("relative difference %v, want 0.10", rel)
	}
}

// writeSide writes one report per value of solve_ds_s on suite256.
func writeSide(t *testing.T, dir string, values ...float64) {
	t.Helper()
	for i, v := range values {
		p := newPass(endToEnd)
		p.set("solve_ds_s", v)
		p.set("setup_s", 0.5)
		r := &report{Manifest: newManifest(1, 1), Workloads: []workloadResult{{Name: "suite256", EndToEnd: p}}}
		if err := writeReport(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareDirectories(t *testing.T) {
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	writeSide(t, a, 1.00, 1.02, 0.98, 1.01, 0.99)
	writeSide(t, same, 1.01, 1.00, 1.03, 0.99, 1.00)
	writeSide(t, slow, 1.50, 1.52, 1.49, 1.51, 1.50)

	var out bytes.Buffer
	worse, err := compare(&out, a, same)
	if err != nil || worse {
		t.Fatalf("same code: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "suite256") || !strings.Contains(out.String(), "solve_ds_s") || !strings.Contains(out.String(), "ok") {
		t.Errorf("table misses the cell:\n%s", out.String())
	}
	out.Reset()
	worse, err = compare(&out, a, slow)
	if err != nil || !worse {
		t.Fatalf("50%% slower: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict printed:\n%s", out.String())
	}
	// A single file is a side of one run.
	if _, err := compare(&out, filepath.Join(a, "run0.json"), filepath.Join(slow, "run0.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := compare(&out, a, t.TempDir()); err == nil {
		t.Error("an empty directory is not a side")
	}
}
