package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricValue is one reported number. Value is the metric's statistic
// (metricDef.Stat); N, Median and P90 sit beside a timing for information.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Stat   string  `json:"stat,omitempty"`
	N      int     `json:"n,omitempty"`
	Median float64 `json:"median,omitempty"`
	P90    float64 `json:"p90,omitempty"`
}

// passResult is one pass (untraced or traced) over one workload. An
// operation is one checked solve (or one cross-width set-up comparison).
type passResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs []metricDef
}

func newPass(defs []metricDef) *passResult {
	return &passResult{Metrics: map[string]metricValue{}, defs: defs}
}

// def looks a metric up in the pass's table: its unit and statistic come
// from there, so a name the tables do not know is a bug in the harness.
func (p *passResult) def(name string) metricDef {
	d, ok := findDef(p.defs, name)
	if !ok {
		panic("e2e: metric " + name + " is not in the tables")
	}
	return d
}

// set records a metric.
func (p *passResult) set(name string, v float64) {
	d := p.def(name)
	p.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Stat: d.Stat}
}

// setTiming records a timing metric — its table statistic, p10 or median —
// with the sample's size, median and p90 beside it.
func (p *passResult) setTiming(name string, xs []float64) {
	d := p.def(name)
	m := metricValue{Value: p10(xs), Unit: d.Unit, Stat: d.Stat, N: len(xs), Median: median(xs), P90: quantile(xs, 0.90)}
	if d.Stat == "median" {
		m.Value = m.Median
	}
	p.Metrics[name] = m
}

// setNormalised records a host-speed-normalised time; the sample summary
// beside it is of the raw host seconds.
func (p *passResult) setNormalised(name string, v float64, raw []float64) {
	p.setTiming(name, raw)
	m := p.Metrics[name]
	m.Value = v
	p.Metrics[name] = m
}

// op counts one operation; a non-nil err is a failed one.
func (p *passResult) op(what string, err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
		if len(p.Failures) < 20 {
			p.Failures = append(p.Failures, what+": "+err.Error())
		}
	}
}

// finish fixes Correct: no failed operation and every metric of the pass
// present.
func (p *passResult) finish(wall float64) {
	p.WallS = wall
	for _, d := range p.defs {
		if _, ok := p.Metrics[d.Name]; !ok {
			p.Failures = append(p.Failures, "metric "+d.Name+" missing")
		}
	}
	p.Correct = p.Failed == 0 && len(p.Failures) == 0 && p.Attempted > 0
}

// contractLine is the pipeline's result line: exactly these four keys, and
// exactly value and unit per metric.
func (p *passResult) contractLine() string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]vu{}}
	for k, m := range p.Metrics {
		out.Metrics[k] = vu{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

type workloadResult struct {
	Name     string      `json:"name"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// manifest says what a report's numbers were taken on, so two reports can
// be compared honestly (ROADMAP item 5).
type manifest struct {
	GitRev        string             `json:"git_rev"`
	GitDirty      bool               `json:"git_dirty"`
	GoVersion     string             `json:"go_version"`
	NumCPU        int                `json:"nproc"`
	WidthW1       int                `json:"gomaxprocs_w1"`
	WidthMC       int                `json:"gomaxprocs_mc"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Reps          map[string]int     `json:"reps"`
	WorkloadHash  string             `json:"workload_table_hash"`
	WorkloadWallS map[string]float64 `json:"workload_wall_s"`
	WallS         float64            `json:"wall_s"`
}

func newManifest(seed int64, seconds float64) manifest {
	rev, dirty := gitRev()
	return manifest{
		GitRev: rev, GitDirty: dirty,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		WidthW1: 1, WidthMC: mcWidth(),
		Seed: seed, Seconds: seconds,
		Reps: map[string]int{
			"setup": setupReps, "traced_setup_w1": tracedSetupReps, "traced_setup_mc": tracedSetupReps,
			"solve_min_per_draw": minRepsPerDraw, "solve_max": maxSolveReps, "traced_solve_min": minTracedRounds,
			"rma_probe": probeReps, "rma_probe_phases": probePhases,
		},
		WorkloadHash:  workloadTableHash(),
		WorkloadWallS: map[string]float64{},
	}
}

// gitRev asks git for the commit; outside a work tree (the pipeline's
// checkout is not one) the revision is "unknown".
func gitRev() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

// report is the file -out writes and -compare reads.
type report struct {
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadResult `json:"workloads"`
}

func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printManifest(w io.Writer, m manifest) {
	dirty := ""
	if m.GitDirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "# e2e benchmark: rev %s%s, %s, nproc %d, widths w1=%d mc=%d, seed %d, %.3g s/workload pass, workload table %s\n",
		m.GitRev, dirty, m.GoVersion, m.NumCPU, m.WidthW1, m.WidthMC, m.Seed, m.Seconds, m.WorkloadHash)
	fmt.Fprintf(w, "# reps: %v\n", m.Reps)
}

// printPass prints every metric of a pass by name, with its unit, in table
// order.
func printPass(w io.Writer, workload, title string, p *passResult) {
	fmt.Fprintf(w, "\n== %s: %s (%d operations, %d failed, %.2f s wall)\n", workload, title, p.Attempted, p.Failed, p.WallS)
	fmt.Fprintf(w, "%-30s %14s %-7s %-7s %5s %12s %12s\n", "metric", "value", "unit", "stat", "n", "median", "p90")
	for _, d := range p.defs {
		m, ok := p.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "%-30s %14s\n", d.Name, "MISSING")
			continue
		}
		if m.N > 0 {
			fmt.Fprintf(w, "%-30s %14.6g %-7s %-7s %5d %12.6g %12.6g\n", d.Name, m.Value, m.Unit, m.Stat, m.N, m.Median, m.P90)
		} else {
			fmt.Fprintf(w, "%-30s %14.6g %-7s %-7s\n", d.Name, m.Value, m.Unit, m.Stat)
		}
	}
	failedFrac := 0.0
	if p.Attempted > 0 {
		failedFrac = float64(p.Failed) / float64(p.Attempted)
	}
	fmt.Fprintf(w, "%-30s %14.6g %-7s %-7s\n", "ops_failed_frac", failedFrac, "ratio", "exact")
	for _, f := range p.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}
