// Command benchtables regenerates the tables and figures of the paper's
// evaluation section on the synthetic suite and simulated runtime.
//
// Usage:
//
//	benchtables [flags] <experiment>...
//
// where each experiment is one of: fig2 fig5 fig6 fig7 fig8 fig9 table2
// table3 table4 deadlock ablation chaos scaling, or all of them ("all").
// Every suite run relaxes each block with one Gauss-Seidel sweep, the
// paper's setting; the ablation table's second half compares it with the
// exact local solve, which dsouthwell -loc_solver direct runs on its own.
//
// Flags:
//
//	-ranks N       simulated process count for suite experiments (default 256)
//	-steps N       parallel-step budget override (default: per-experiment)
//	-quick         shrunken configuration (smoke test)
//	-seed S        initial guess / partition seed (default 1; 0 is refused)
//	-out DIR       write one file per experiment into DIR instead of stdout
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

	"southwell/internal/bench"
	"southwell/internal/cli"
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
	{"scaling", bench.Scaling},
}

// validate rejects nonsensical flag combinations before any experiment
// starts, so misuse fails with one line instead of a deep panic.
func validate(ranks, steps int, seed, chaosSeed int64, chaos float64, out, trace, metrics, cpuProfile, memProfile string) error {
	if err := cli.CheckOutputs([][2]string{{"-cpuprofile", cpuProfile}, {"-memprofile", memProfile}},
		[][2]string{{"-out", out}, {"-trace", trace}, {"-metrics", metrics}}); err != nil {
		return err
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

	stop, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
	}

	cfg := bench.Config{Ranks: *ranks, Steps: *steps, Quick: *quick, Seed: *seed,
		ChaosSeed: *chaosSeed, TraceDir: *traceDir, MetricsDir: *metricsDir}
	if *chaos > 0 {
		cfg.Faults = rma.DelayPlan(*chaosSeed, *chaos, 3)
	}
	err = run(cfg, flag.Args(), *outDir)

	code := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		code = 1
	}
	// Flush the profiles before exiting, even on experiment failure.
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
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
				want[e.name] = true
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
		if outDir == "" {
			fmt.Printf("==== %s ====\n", e.name)
			if err := e.run(os.Stdout, cfg); err != nil {
				return fmt.Errorf("%s: %v", e.name, err)
			}
			fmt.Println()
			continue
		}
		path := filepath.Join(outDir, e.name+".txt")
		if err := cli.WriteFile(path, func(w io.Writer) error { return e.run(w, cfg) }); err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
