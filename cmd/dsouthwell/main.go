// Command dsouthwell mirrors the paper artifact's DMEM_Southwell driver: it
// loads or generates a test matrix, scales it to unit diagonal, prepares a
// random initial guess (or right-hand side), partitions it over simulated
// MPI ranks, runs the selected solver for a number of parallel steps, and
// reports the solve statistics.
//
// Examples:
//
//	dsouthwell -mat af_5_k101 -n 1024 -solver sos_sds -sweep_max 20
//	dsouthwell -solver bj -n 256                  # default Laplace problem
//	dsouthwell -mat_file m.mtx -solver ps -x_zeros
package main

import (
	"flag"
	"fmt"
	"os"

	"southwell/internal/cli"
	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// options are the validated run settings derived from flags.
type options struct {
	method core.DistMethod
	local  dmem.LocalSolver
	faults *rma.FaultPlan
}

// validate checks every flag value up front, so misuse fails with a
// one-line message and exit status 2 instead of a deep panic or a
// confusing error mid-run.
func validate(ranks, sweepMax, grid int, solver, locSolver string, target, chaos float64, chaosSeed int64, trace, metrics, cpuProf, memProf string) (options, error) {
	var o options
	if ranks <= 0 {
		return o, fmt.Errorf("-n %d: need at least 1 simulated rank", ranks)
	}
	if err := cli.CheckOutputs([][2]string{{"-trace", trace}, {"-metrics", metrics}, {"-cpuprofile", cpuProf}, {"-memprofile", memProf}}, nil); err != nil {
		return o, err
	}
	if sweepMax <= 0 {
		return o, fmt.Errorf("-sweep_max %d: need at least 1 parallel step", sweepMax)
	}
	if grid < 2 {
		return o, fmt.Errorf("-grid %d: need at least 2", grid)
	}
	// The 5-point matrix has g² rows and 5g² − 4g entries, each count at
	// most sparse.MaxIndex: the largest grid is 20 724. Each test runs only
	// when the one before it passed, so no product overflows.
	if grid > sparse.MaxIndex || grid*grid > sparse.MaxIndex || 5*grid*grid-4*grid > sparse.MaxIndex {
		return o, fmt.Errorf("-grid %d: the %d×%d Laplacian outgrows the 32-bit index range (at most 20724)", grid, grid, grid)
	}
	if !(target >= 0) { // NaN fails too
		return o, fmt.Errorf("-target %g: must be >= 0", target)
	}
	var err error
	if o.method, err = core.ParseDistMethod(solver); err != nil {
		return o, fmt.Errorf("-solver %q: unknown (use sos_sds, ds, ps, bj, or pb16)", solver)
	}
	if o.local, err = dmem.ParseLocalSolver(locSolver); err != nil {
		return o, err
	}
	if !(chaos >= 0 && chaos <= 1) { // NaN fails too
		return o, fmt.Errorf("-chaos %g: must be a probability in [0, 1]", chaos)
	}
	if chaos > 0 {
		o.faults = rma.DelayPlan(chaosSeed, chaos, 3)
	}
	return o, nil
}

func main() { os.Exit(dsouthwell()) }

// dsouthwell runs the command and returns its exit status. Every error
// returns here rather than calling os.Exit, so the deferred profile writers
// flush -cpuprofile and -memprofile on a failed run too; a heap profile that
// cannot be written turns a successful run's status into 1.
func dsouthwell() (code int) {
	var (
		matName  = flag.String("mat", "", "synthetic suite matrix name (see -list)")
		matFile  = flag.String("mat_file", "", "MatrixMarket file to load instead")
		list     = flag.Bool("list", false, "list suite matrix names and exit")
		ranks    = flag.Int("n", 256, "number of simulated MPI processes")
		solver   = flag.String("solver", "sos_sds", "solver: sos_sds (Distributed Southwell), ps, bj, pb16")
		sweepMax = flag.Int("sweep_max", 20, "number of parallel steps")
		target   = flag.Float64("target", 0, "stop early at this residual norm (0 = run all steps)")
		locSolve = flag.String("loc_solver", "gs", "local subdomain solver: gs (one Gauss-Seidel sweep), direct (sparse LDLT, the artifact's PARDISO option), or pardiso (= direct)")
		xZeros   = flag.Bool("x_zeros", false, "x = 0 and random b (default: random x, b = 0)")
		seed     = flag.Int64("seed", 1, "random seed")
		grid     = flag.Int("grid", 100, "grid dimension for the default Laplace problem")
		chaos    = flag.Float64("chaos", 0, "inject delay faults: per-message probability of a 1-3 phase delivery delay (0 = perfect network)")
		chaosSd  = flag.Int64("chaos-seed", 1, "fault-injection seed (chaos runs are bit-reproducible per seed)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto; one track per simulated rank)")
		metrics  = flag.String("metrics", "", "write a plain-text per-step / per-rank metrics summary of the run to this file")
		cpuProf  = flag.String("cpuprofile", "", "write pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write pprof heap profile to this file on exit")
	)
	flag.Parse()

	opts, err := validate(*ranks, *sweepMax, *grid, *solver, *locSolve, *target, *chaos, *chaosSd, *traceOut, *metrics, *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsouthwell: %v\n", err)
		return 2
	}

	stop, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsouthwell: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "dsouthwell: %v\n", err)
			code = 1
		}
	}()

	if *list {
		fmt.Printf("%-12s %9s %11s  %s\n", "name", "paper n", "paper nnz", "kind")
		for _, e := range problem.Suite() {
			fmt.Printf("%-12s %9d %11d  %s\n", e.Name, e.PaperN, e.PaperNNZ, e.Kind)
		}
		return 0
	}

	a, label, err := loadMatrix(*matName, *matFile, *grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsouthwell: %v\n", err)
		return 1
	}
	// Every rank must own a row; validate cannot tell before the matrix loads.
	if *ranks > a.N {
		fmt.Fprintf(os.Stderr, "dsouthwell: -n %d: more ranks than the %d rows of %s\n", *ranks, a.N, label)
		return 2
	}
	if _, err := sparse.Scale(a); err != nil {
		fmt.Fprintf(os.Stderr, "dsouthwell: scaling: %v\n", err)
		return 1
	}

	var b, x []float64
	if *xZeros {
		b, x = problem.RandomBSystem(a, *seed)
	} else {
		b, x = problem.ZeroBSystem(a, *seed)
	}

	fmt.Printf("matrix:    %s (n=%d, nnz=%d)\n", label, a.N, a.NNZ())
	fmt.Printf("solver:    %s, %d ranks, %d parallel steps\n", opts.method, *ranks, *sweepMax)
	if opts.faults != nil {
		fmt.Printf("chaos:     delay prob %g, max 3 phases, seed %d\n", *chaos, *chaosSd)
	}

	opt := core.DistOptions{
		Method: opts.method, Ranks: *ranks, Steps: *sweepMax, Target: *target,
		PartSeed: *seed, Local: opts.local, Faults: opts.faults,
	}
	var rec *obs.Recorder
	if *traceOut != "" || *metrics != "" {
		rec = obs.NewRecorder(*ranks)
		rec.SetLabel(fmt.Sprintf("%s %s p=%d", label, opts.method, *ranks))
		opt.Trace = rec
	}
	res, err := core.SolveDistributed(a, b, x, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsouthwell: %v\n", err)
		return 1
	}
	if *traceOut != "" {
		if err := cli.WriteFile(*traceOut, rec.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "dsouthwell: -trace: %v\n", err)
			return 1
		}
	}
	if *metrics != "" {
		if err := cli.WriteFile(*metrics, rec.WriteMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "dsouthwell: -metrics: %v\n", err)
			return 1
		}
	}

	fin := res.Final()
	fmt.Printf("\nresidual norm:      %.6g (from 1.0)\n", fin.ResNorm)
	fmt.Printf("parallel steps:     %d\n", fin.Step)
	fmt.Printf("relaxations/n:      %.3f\n", float64(fin.Relaxations)/float64(res.N))
	fmt.Printf("active processes:   %.3f\n", res.ActiveFraction)
	fmt.Printf("messages:           %d solve + %d residual = %d total\n",
		res.Stats.SolveMsgs, res.Stats.ResMsgs, res.Stats.TotalMsgs())
	fmt.Printf("communication cost: %.3f (messages/rank)\n", res.Stats.CommCost(res.P))
	fmt.Printf("sim wall-clock:     %.6f s (alpha-beta-gamma model)\n", res.Stats.SimTime)
	if len(res.ActiveHist) > 0 {
		sum := 0
		for _, n := range res.ActiveHist {
			sum += n
		}
		mean := float64(sum) / float64(len(res.ActiveHist))
		fmt.Printf("active-set engine:  mean %.1f/%d ranks stepped (%.1f%% skipped)\n",
			mean, res.P, 100*(1-mean/float64(res.P)))
	}
	if opts.faults != nil {
		fmt.Printf("faults injected:    %d delayed messages\n", res.Stats.DelayedMsgs)
	}
	if res.Deadlocked {
		fmt.Printf("DEADLOCKED at step %d (stagnation watchdog)\n", res.DeadlockStep)
	}
	return 0
}

func loadMatrix(name, file string, grid int) (*sparse.CSR, string, error) {
	switch {
	case name != "" && file != "":
		return nil, "", fmt.Errorf("use only one of -mat and -mat_file")
	case name != "":
		e, ok := problem.SuiteByName(name)
		if !ok {
			return nil, "", fmt.Errorf("unknown suite matrix %q (try -list)", name)
		}
		return e.Gen(), name, nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			return nil, "", err
		}
		return a, file, nil
	default:
		// The artifact's default: a 5-point Laplace problem.
		return problem.Poisson2D(grid, grid), fmt.Sprintf("laplace-%dx%d", grid, grid), nil
	}
}
