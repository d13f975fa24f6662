// Package core is the public API of the Distributed Southwell library. It
// ties the substrates together behind two entry points:
//
//   - SolveScalar runs the shared-memory scalar methods of the paper's §2
//     and §3 (Jacobi, Gauss-Seidel, Multicolor Gauss-Seidel, Sequential /
//     Parallel / Distributed Southwell) and returns a per-step convergence
//     trace.
//
//   - SolveDistributed partitions the problem over simulated ranks and runs
//     the paper's distributed block methods (Block Jacobi, Parallel
//     Southwell, Distributed Southwell, and the deadlock-prone 2016
//     piggyback variant) over the one-sided RMA runtime, returning
//     convergence history, message counts split by kind, and simulated
//     wall-clock time.
//
// Problems come from the synthetic suite (problem.Suite), the generators in
// internal/problem, or any symmetric positive definite matrix supplied by
// the caller (e.g. read with sparse.ReadMatrixMarket).
package core

import (
	"fmt"
	"math"

	"southwell/internal/dmem"
	"southwell/internal/obs"
	"southwell/internal/partition"
	"southwell/internal/rma"
	"southwell/internal/solvers"
	"southwell/internal/sparse"
)

// ScalarMethod selects a shared-memory method for SolveScalar.
type ScalarMethod string

// Scalar methods.
const (
	Jacobi        ScalarMethod = "jacobi"
	GaussSeidel   ScalarMethod = "gs"
	MulticolorGS  ScalarMethod = "mcgs"
	SequentialSW  ScalarMethod = "sw"
	ParallelSW    ScalarMethod = "psw"
	DistributedSW ScalarMethod = "dsw"
)

// ScalarMethods lists all scalar methods in presentation order.
func ScalarMethods() []ScalarMethod {
	return []ScalarMethod{GaussSeidel, SequentialSW, ParallelSW, MulticolorGS, Jacobi, DistributedSW}
}

// DistMethod selects a distributed method for SolveDistributed.
type DistMethod string

// Distributed methods. The artifact's solver names are accepted as
// aliases by ParseDistMethod.
const (
	BlockJacobi   DistMethod = "bj"
	ParallelSWD   DistMethod = "ps"
	DistSWD       DistMethod = "ds"
	Piggyback2016 DistMethod = "pb16"
)

// ParseDistMethod resolves a method name or artifact alias ("sos_sds" is
// the artifact's flag value for Distributed Southwell).
func ParseDistMethod(s string) (DistMethod, error) {
	switch s {
	case "bj", "jacobi", "blockjacobi":
		return BlockJacobi, nil
	case "ps", "parsw", "sos_ps":
		return ParallelSWD, nil
	case "ds", "distsw", "sos_sds":
		return DistSWD, nil
	case "pb16", "piggyback":
		return Piggyback2016, nil
	}
	return "", fmt.Errorf("core: unknown distributed method %q", s)
}

// ScalarOptions configures SolveScalar.
type ScalarOptions struct {
	Method     ScalarMethod
	MaxRelax   int     // 0 = one sweep (n relaxations)
	TargetNorm float64 // 0 = none
}

// checkSystem rejects a system the solvers would index out of range, and a
// non-finite entry of b or x, which no method can converge from: both entry
// points take their inputs from outside the program, and every other bad
// input is an error too.
func checkSystem(a *sparse.CSR, b, x []float64) error {
	if a == nil {
		return fmt.Errorf("core: nil matrix")
	}
	if len(b) != a.N || len(x) != a.N {
		return fmt.Errorf("core: len(b) = %d and len(x) = %d, want n = %d", len(b), len(x), a.N)
	}
	if i := firstNonFinite(b); i >= 0 {
		return fmt.Errorf("core: b[%d] = %g, want a finite value", i, b[i])
	}
	if i := firstNonFinite(x); i >= 0 {
		return fmt.Errorf("core: x[%d] = %g, want a finite value", i, x[i])
	}
	return nil
}

// firstNonFinite returns the index of v's first NaN or ±Inf, or -1.
func firstNonFinite(v []float64) int {
	for i, e := range v {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return i
		}
	}
	return -1
}

// SolveScalar runs a scalar method on A x = b, updating x in place, and
// returns the convergence trace; Distributed Southwell's records carry its
// message counts. A must be structurally symmetric: every method reads row
// i to propagate a relaxation through column i.
func SolveScalar(a *sparse.CSR, b, x []float64, opt ScalarOptions) (*solvers.Trace, error) {
	if err := checkSystem(a, b, x); err != nil {
		return nil, err
	}
	var run func(*sparse.CSR, []float64, []float64, solvers.Options) *solvers.Trace
	switch opt.Method {
	case Jacobi:
		run = solvers.Jacobi
	case GaussSeidel:
		run = solvers.GaussSeidel
	case MulticolorGS:
		run = solvers.MulticolorGS
	case SequentialSW:
		run = solvers.SequentialSouthwell
	case ParallelSW:
		run = solvers.ParallelSouthwell
	case DistributedSW:
		run = solvers.DistributedSouthwell
	default:
		return nil, fmt.Errorf("core: unknown scalar method %q", opt.Method)
	}
	if opt.MaxRelax < 0 {
		return nil, fmt.Errorf("core: MaxRelax = %d, want >= 0 (0 = one sweep)", opt.MaxRelax)
	}
	if !(opt.TargetNorm >= 0) { // NaN fails too
		return nil, fmt.Errorf("core: TargetNorm = %g, want >= 0", opt.TargetNorm)
	}
	if !a.IsStructurallySymmetric() {
		return nil, fmt.Errorf("core: the matrix is not structurally symmetric")
	}
	return run(a, b, x, solvers.Options{MaxRelax: opt.MaxRelax, TargetNorm: opt.TargetNorm}), nil
}

// DistOptions configures SolveDistributed.
type DistOptions struct {
	Method DistMethod
	// Ranks is the number of simulated MPI processes.
	Ranks int
	// Steps is the parallel-step budget (0 = 50, the paper's default).
	Steps int
	// Target stops early at this residual norm (0 = run all steps).
	Target float64
	// PartSeed seeds the multilevel partitioner.
	PartSeed int64
	// Parallel is accepted and ignored (simulated rank phases always run
	// inline, in ascending rank order, on the calling goroutine); it exists
	// only because benchmarks/e2e names it, and goes with ds_mc in the next
	// benchmark change.
	Parallel bool
	// Sched is accepted and ignored since PR 19 (rma.SchedNeighbor named
	// the removed neighborhood-epoch scheduler); it exists only because
	// benchmarks/e2e names it, and goes with ds_nbr_mc in the next
	// benchmark PR.
	Sched rma.Sched
	// Setup, when non-nil, is the preprocessing of this (matrix, partition,
	// local solver) — layout plus local factorizations (dmem.NewLayout,
	// dmem.NewSetup) — so repeated runs skip partitioning and factorization.
	// It must have been built for a and Ranks with this exact Local mode;
	// mismatches are rejected. When set, PartSeed is ignored (the setup's
	// layout already fixes the partition); a partition of the caller's own
	// goes in this way too. One reusable run state is parked on the setup,
	// so repeated solves (smoother, preconditioner) allocate next to nothing
	// and concurrent runs stay safe.
	Setup *dmem.Setup
	// Local selects the subdomain solver: dmem.LocalGS (default, one
	// Gauss-Seidel sweep — the paper's setting) or dmem.LocalDirect (exact
	// sparse LDLᵀ solve, the artifact's PARDISO option). Any other value
	// fails the solve.
	Local dmem.LocalSolver
	// Faults, when non-nil, installs deterministic message delays on the
	// simulated runtime (see rma.FaultPlan). Nil is a perfect network.
	Faults *rma.FaultPlan
	// Dense disables the active-set step engine and runs every rank every
	// phase (the zero value steps actively, which is bit-identical; see
	// dmem.Config.Dense). Diagnostic — results never depend on it.
	Dense bool
	// Trace, when non-nil, receives structured runtime and algorithm
	// events (see internal/obs). Tracing never changes results.
	Trace *obs.Recorder
}

// SolveDistributed runs the selected distributed method on opt.Setup, or on
// a setup it builds: A partitioned over opt.Ranks simulated processes, laid
// out, and its local blocks factored for opt.Local. The returned result
// carries the per-step history, communication statistics, and the gathered
// solution.
func SolveDistributed(a *sparse.CSR, b, x []float64, opt DistOptions) (*dmem.Result, error) {
	if err := checkSystem(a, b, x); err != nil {
		return nil, err
	}
	if opt.Ranks <= 0 {
		return nil, fmt.Errorf("core: Ranks = %d, want >= 1", opt.Ranks)
	}
	if opt.Steps < 0 {
		return nil, fmt.Errorf("core: Steps = %d, want >= 0 (0 = 50)", opt.Steps)
	}
	if !(opt.Target >= 0) { // NaN fails too
		return nil, fmt.Errorf("core: Target = %g, want >= 0", opt.Target)
	}
	if f := opt.Faults; f != nil && !(f.DelayProb >= 0 && f.DelayProb <= 1) { // NaN fails too
		return nil, fmt.Errorf("core: Faults.DelayProb = %g, want a probability in [0, 1]", f.DelayProb)
	}
	var run func(*dmem.Setup, []float64, []float64, dmem.Config) *dmem.Result
	switch opt.Method {
	case BlockJacobi:
		run = dmem.BlockJacobi
	case ParallelSWD:
		run = dmem.ParallelSouthwell
	case DistSWD:
		run = dmem.DistributedSouthwell
	case Piggyback2016:
		run = dmem.Piggyback2016
	default:
		return nil, fmt.Errorf("core: unknown distributed method %q", opt.Method)
	}
	s := opt.Setup
	if s != nil {
		if s.Layout.A != a {
			return nil, fmt.Errorf("core: Setup was built for a different matrix")
		}
		if s.Layout.P != opt.Ranks {
			return nil, fmt.Errorf("core: Setup has %d ranks, want %d", s.Layout.P, opt.Ranks)
		}
		if s.Local != opt.Local {
			return nil, fmt.Errorf("core: Setup was built for local solver %v, want %v", s.Local, opt.Local)
		}
	} else {
		l, err := dmem.NewLayout(a, partition.Partition(a, opt.Ranks, partition.Options{Seed: opt.PartSeed}), opt.Ranks)
		if err != nil {
			return nil, err
		}
		if s, err = dmem.NewSetup(l, opt.Local); err != nil {
			return nil, err
		}
	}
	return run(s, b, x, dmem.Config{
		Steps: opt.Steps, Target: opt.Target,
		Faults: opt.Faults, Dense: opt.Dense, Trace: opt.Trace,
	}), nil
}
