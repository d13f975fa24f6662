// Command e2e is the repository's end-to-end benchmark: four workloads that
// each stress a different layer of the distributed solver, an untraced pass
// for the end-to-end metrics and a traced pass for the per-layer breakdown.
// Every result is checked for correctness, including against a residual
// recomputed from scratch. See README.md in this directory.
//
//	go run ./benchmarks/e2e -seed 1                       # all workloads, both passes
//	go run ./benchmarks/e2e -workload wide4k -trace 0     # one pass of one workload
//	go run ./benchmarks/e2e -compare runsA/ runsB/        # verdict per workload × metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	benchStart := time.Now()
	var (
		workloadName = flag.String("workload", "all", "workload to run: all, or one of suite256, wide4k, pointload2k, direct64")
		seed         = flag.Int64("seed", 1, "drives the right-hand-side draws: the initial guesses or, on pointload2k, the load positions")
		seconds      = flag.Float64("seconds", 3, "measuring window of each pass over each workload, after its set-up")
		trace        = flag.String("trace", "both", "0: end-to-end pass (tracing off), 1: per-layer pass (span recorder on), both")
		out          = flag.String("out", "", "also write the full report (manifest and every metric) to this JSON file")
		traceDir     = flag.String("tracedir", filepath.Join("benchmarks", "e2e", "out"), "directory the traced pass writes its Chrome trace to")
		doCompare    = flag.Bool("compare", false, "compare two reports (files, or directories of them): -compare A B")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: -compare needs two reports: -compare A B")
			return 2
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	selected := workloads
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{*w}
	}
	untraced, traced := *trace == "0" || *trace == "both", *trace == "1" || *trace == "both"
	if !untraced && !traced {
		fmt.Fprintf(os.Stderr, "e2e: -trace %q, want 0, 1 or both\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "e2e: -seconds %v, want > 0\n", *seconds)
		return 2
	}

	rep := &report{Manifest: newManifest(*seed, *seconds)}
	printManifest(os.Stdout, rep.Manifest)
	var rec *spanRecorder
	var probe rmaProbeResult
	if traced {
		rec = newSpanRecorder()
		probe = rmaProbe(rec)
	}
	var lines []string
	failed := false
	for i := range selected {
		w := &selected[i]
		wStart := time.Now()
		res := workloadResult{Name: w.Name}
		var err error
		if untraced {
			if res.EndToEnd, err = runUntraced(w, *seed, *seconds); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
				return 1
			}
			printPass(os.Stdout, w.Name, "end to end (tracing off)", res.EndToEnd)
			lines = append(lines, res.EndToEnd.contractLine())
			failed = failed || !res.EndToEnd.Correct
		}
		if traced {
			if res.PerLayer, err = runTraced(w, *seed, *seconds, rec, probe); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
				return 1
			}
			printPass(os.Stdout, w.Name, "per layer (traced)", res.PerLayer)
			lines = append(lines, res.PerLayer.contractLine())
			failed = failed || !res.PerLayer.Correct
		}
		rep.Manifest.WorkloadWallS[w.Name] = time.Since(wStart).Seconds()
		fmt.Printf("%s: wall %.2f s\n", w.Name, rep.Manifest.WorkloadWallS[w.Name])
		rep.Workloads = append(rep.Workloads, res)
	}
	rep.Manifest.WallS = time.Since(benchStart).Seconds()
	fmt.Printf("\ntotal wall %.2f s\n", rep.Manifest.WallS)

	if rec != nil {
		path := filepath.Join(*traceDir, fmt.Sprintf("spans-%s-seed%d.json", *workloadName, *seed))
		if err := writeTraceFile(path, rec, rep.Manifest); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %s (%d spans)\n", path, len(rec.spans))
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			return 1
		}
	}
	// The result lines come last: one per pass run, in the order above.
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed {
		return 1
	}
	return 0
}

func writeTraceFile(path string, rec *spanRecorder, m manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChromeTrace(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
