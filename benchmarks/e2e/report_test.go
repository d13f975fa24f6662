package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	p := newPass(endToEnd)
	p.setTiming("setup_s", []float64{0.5, 0.4, 0.6})
	p.setNormalised("solve_ds_s", 0.031, []float64{0.03, 0.04, 0.05})
	p.set("ds_msgs_to_target", 34213.6)
	p.op("suite256/ds/draw0", nil)
	p.finish(1.5)
	in := &report{Manifest: newManifest(3, 2.5), Workloads: []workloadResult{{Name: "suite256", EndToEnd: p}}}
	in.Manifest.WorkloadWallS["suite256"] = 1.5
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Manifest, out.Manifest) {
		t.Errorf("manifest: wrote %+v, read %+v", in.Manifest, out.Manifest)
	}
	got := out.Workloads[0].EndToEnd
	if !reflect.DeepEqual(got.Metrics, p.Metrics) || got.Attempted != 1 || got.WallS != 1.5 {
		t.Errorf("pass: wrote %+v, read %+v", p, got)
	}
	m := got.Metrics["solve_ds_s"]
	if m.Value != 0.031 || m.Unit != "s" || m.N != 3 || m.Median != 0.04 {
		t.Errorf("normalised metric keeps its value and the raw summary: %+v", m)
	}
	if got.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("setup_s is a median: %+v", got.Metrics["setup_s"])
	}
	if in.Manifest.WorkloadHash == "" || in.Manifest.Seed != 3 || in.Manifest.Reps["setup"] != setupReps {
		t.Errorf("manifest incomplete: %+v", in.Manifest)
	}
}

func TestFinishAndContractLine(t *testing.T) {
	p := newPass(endToEnd)
	p.op("x", nil)
	p.finish(1)
	if p.Correct {
		t.Error("a pass with metrics missing is not correct")
	}

	p = newPass(endToEnd)
	for _, d := range endToEnd {
		p.set(d.Name, 1.25)
	}
	p.op("a", nil)
	p.op("b", os.ErrNotExist)
	p.finish(1)
	if p.Correct || p.Failed != 1 || p.Attempted != 2 {
		t.Errorf("failed operation: %+v", p)
	}

	p.Failed, p.Failures = 0, nil
	p.finish(1)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(p.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line keys: %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics in the line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] != 1.25 || m["unit"] == "" {
			t.Errorf("metric %s: %v", name, m)
		}
	}
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s", line["correct"])
	}
}

// BENCHMARK.json is what the pipeline reads; the tables in metrics.go and
// workloads.go are what the harness runs. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmarks/e2e"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmarks/e2e"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs table %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %s: name or why outside the contract's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v vs table %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v vs table %v", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %s: name or unit %q outside the contract's limits, or used twice", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if d, _ := findDef(endToEnd, "setup_s"); d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be in seconds, lower is better: %+v", d)
	}
}
