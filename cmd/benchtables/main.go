// Command benchtables regenerates the tables and figures of the paper's
// evaluation section on the synthetic suite and simulated runtime.
//
// Usage:
//
//	benchtables [flags] <experiment>...
//
// where each experiment is one of: fig2 fig5 fig6 fig7 fig8 fig9 table2
// table3 table4 deadlock ablation chaos scaling all ("all" excludes
// scaling, the paper-scale 8192-rank study — request it by name).
//
// Flags:
//
//	-ranks N       simulated process count for suite experiments (default 256)
//	-steps N       parallel-step budget override (default: per-experiment)
//	-quick         shrunken configuration (smoke test)
//	-seed S        initial guess / partition seed (default 1; 0 is refused)
//	-out DIR       write one file per experiment into DIR instead of stdout
//	-loc_solver S  local subdomain solver for every run: gs (default),
//	               direct (sparse LDLT), or its artifact name pardiso
//	-chaos P       inject delay faults: each message delayed 1-3 phases with
//	               probability P (deterministic per -chaos-seed)
//	-chaos-seed S  fault-injection seed (default 1; 0 is refused)
//	-trace DIR     write one Chrome trace-event JSON (Perfetto) per suite
//	               run into DIR
//	-metrics DIR   write one plain-text metrics summary per suite run into
//	               DIR
//	-cpuprofile F  write a pprof CPU profile to F
//	-memprofile F  write a pprof heap profile to F on exit
//
// Suite runs spread over GOMAXPROCS goroutines (set GOMAXPROCS=N to change
// that); the output is identical at every width.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"southwell/internal/bench"
	"southwell/internal/dmem"
	"southwell/internal/rma"
)

var experiments = []struct {
	name string
	run  func(io.Writer, bench.Config) error
}{
	{"fig2", bench.Fig2},
	{"fig5", bench.Fig5},
	{"fig6", bench.Fig6},
	{"table2", bench.Table2},
	{"table3", bench.Table3},
	{"table4", bench.Table4},
	{"fig7", bench.Fig7},
	{"fig8", bench.Fig8},
	{"fig9", bench.Fig9},
	{"deadlock", bench.Deadlock},
	{"ablation", bench.Ablation},
	{"chaos", bench.Chaos},
	// scaling is explicit-only (excluded from "all"): the driver keeps every
	// setup it builds, and the 8192-rank rungs would add about 0.3 GB to the
	// 1 GB "all" already peaks at.
	{"scaling", bench.Scaling},
}

// allExcluded experiments must be requested by name.
var allExcluded = map[string]bool{"scaling": true}

// validateOutDir checks an output-directory flag up front: an existing
// path must be a directory (a missing one is created on first write).
func validateOutDir(flagName, path string) error {
	if path == "" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		return fmt.Errorf("%s %q: exists and is not a directory", flagName, path)
	}
	return nil
}

// validateOutFile checks an output-file flag up front: the path must not
// be an existing directory and its parent directory must exist, so a typo
// fails before the experiments run instead of after them.
func validateOutFile(flagName, path string) error {
	if path == "" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("%s %q: is a directory, want a file path", flagName, path)
	}
	if dir := filepath.Dir(path); dir != "." {
		fi, err := os.Stat(dir)
		if err != nil {
			return fmt.Errorf("%s %q: parent directory %q does not exist", flagName, path, dir)
		}
		if !fi.IsDir() {
			return fmt.Errorf("%s %q: parent %q is not a directory", flagName, path, dir)
		}
	}
	return nil
}

// validate rejects nonsensical flag combinations before any experiment
// starts, so misuse fails with one line instead of a deep panic.
func validate(ranks, steps int, seed, chaosSeed int64, chaos float64, out, trace, metrics, cpuProfile, memProfile string) error {
	if err := validateOutDir("-out", out); err != nil {
		return err
	}
	if err := validateOutDir("-trace", trace); err != nil {
		return err
	}
	if err := validateOutDir("-metrics", metrics); err != nil {
		return err
	}
	if err := validateOutFile("-cpuprofile", cpuProfile); err != nil {
		return err
	}
	if err := validateOutFile("-memprofile", memProfile); err != nil {
		return err
	}
	if cpuProfile != "" && cpuProfile == memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile %q: must be different files", cpuProfile)
	}
	if ranks < 0 {
		return fmt.Errorf("-ranks %d: must be >= 1 (or 0 for the default)", ranks)
	}
	if steps < 0 {
		return fmt.Errorf("-steps %d: must be >= 1 (or 0 for the per-experiment default)", steps)
	}
	// The experiments read a zero seed as "unset" and run seed 1 instead.
	if seed == 0 {
		return fmt.Errorf("-seed 0: must be nonzero")
	}
	if chaosSeed == 0 {
		return fmt.Errorf("-chaos-seed 0: must be nonzero")
	}
	if !(chaos >= 0 && chaos <= 1) { // NaN fails too
		return fmt.Errorf("-chaos %g: must be a probability in [0, 1]", chaos)
	}
	return nil
}

func main() {
	ranks := flag.Int("ranks", 0, "simulated process count (0 = default 256)")
	steps := flag.Int("steps", 0, "parallel-step budget (0 = per-experiment default)")
	quick := flag.Bool("quick", false, "shrunken smoke-test configuration")
	seed := flag.Int64("seed", 1, "initial-guess and partition seed (nonzero)")
	outDir := flag.String("out", "", "write one file per experiment into this directory")
	locSolver := flag.String("loc_solver", "gs", "local subdomain solver for every run: gs, direct (sparse LDLT), or pardiso (= direct)")
	chaos := flag.Float64("chaos", 0, "inject delay faults into every run: per-message probability of a 1-3 phase delivery delay (0 = perfect network)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection seed, nonzero (chaos runs are bit-reproducible per seed)")
	traceDir := flag.String("trace", "", "write one Chrome trace-event JSON per suite run into this directory (open in Perfetto)")
	metricsDir := flag.String("metrics", "", "write one plain-text metrics summary per suite run into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write pprof heap profile to this file on exit")
	flag.Parse()

	if err := validate(*ranks, *steps, *seed, *chaosSeed, *chaos, *outDir, *traceDir, *metricsDir, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}
	local, err := dmem.ParseLocalSolver(*locSolver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := bench.Config{Ranks: *ranks, Steps: *steps, Quick: *quick, Seed: *seed,
		ChaosSeed: *chaosSeed, Local: local,
		TraceDir: *traceDir, MetricsDir: *metricsDir}
	if *chaos > 0 {
		cfg.Faults = rma.DelayPlan(*chaosSeed, *chaos, 3)
	}
	err = run(cfg, flag.Args(), *outDir)

	// Flush profiles before exiting, even on experiment failure.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	code := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		code = 1
	}
	if err := writeMemProfile(*memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: -memprofile: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

func run(cfg bench.Config, args []string, outDir string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchtables [flags] fig2|fig5|fig6|fig7|fig8|fig9|table2|table3|table4|deadlock|ablation|chaos|scaling|all")
	}

	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, e := range experiments {
				if !allExcluded[e.name] {
					want[e.name] = true
				}
			}
			continue
		}
		want[a] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for a := range want {
		if !known[a] {
			return fmt.Errorf("unknown experiment %q", a)
		}
	}

	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		var w io.Writer = os.Stdout
		var f *os.File
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			var err error
			f, err = os.Create(filepath.Join(outDir, e.name+".txt"))
			if err != nil {
				return err
			}
			w = f
		} else {
			fmt.Printf("==== %s ====\n", e.name)
		}
		if err := e.run(w, cfg); err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", filepath.Join(outDir, e.name+".txt"))
		} else {
			fmt.Println()
		}
	}
	return nil
}

// writeMemProfile dumps a heap profile after a final GC, pprof-compatible
// (a no-op when path is empty).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
