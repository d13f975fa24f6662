package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSide reads one side of a comparison: a report file, or a directory
// whose *.json files are the reports of repeated invocations. It returns,
// per workload and end-to-end metric, one value per report.
func loadSide(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no *.json reports", path)
		}
	}
	side := map[string]map[string][]float64{}
	hash := ""
	for _, f := range files {
		r, err := readReport(f)
		if err != nil {
			return nil, err
		}
		if hash == "" {
			hash = r.Manifest.WorkloadHash
		} else if r.Manifest.WorkloadHash != hash {
			return nil, fmt.Errorf("%s: workload table %s differs from %s in the same set", f, r.Manifest.WorkloadHash, hash)
		}
		for _, w := range r.Workloads {
			if w.EndToEnd == nil {
				continue
			}
			if side[w.Name] == nil {
				side[w.Name] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd.Metrics {
				side[w.Name][name] = append(side[w.Name][name], m.Value)
			}
		}
	}
	return side, nil
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the medians of two sets of runs of one metric. worse: b's
// median is worse than a's by more than bound. unresolved: a's own
// run-to-run spread is wider than the bound, so the difference cannot be
// read — unless every run of b is better than every run of a.
func judge(a, b []float64, d metricDef) (rel float64, v verdict) {
	ma, mb := median(a), median(b)
	rel = (mb - ma) / ma // > 0 means b is larger
	worsening := rel
	if d.Better == "higher" {
		worsening = -rel
	}
	if spread(a) > d.Bound && !allBetter(a, b, d.Better) {
		return rel, verdictUnresolved
	}
	if worsening > d.Bound {
		return rel, verdictWorse
	}
	return rel, verdictOK
}

func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

// compare prints, per workload × end-to-end metric, both medians, the
// relative difference, the bound and the verdict, and reports whether any
// cell is worse.
func compare(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadSide(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "A (median)", "B (median)", "diff", "bound", "spreadA", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, v := judge(va, vb, d)
			if v == verdictWorse {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*rel, 100*d.Bound, 100*spread(va), v)
		}
	}
	return anyWorse, nil
}
