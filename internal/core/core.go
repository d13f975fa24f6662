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

	"southwell/internal/dmem"
	"southwell/internal/obs"
	"southwell/internal/partition"
	"southwell/internal/problem"
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

// Prepare symmetrically scales a to unit diagonal (in place) and builds the
// paper's standard test setup: random x with b = 0 and ‖r⁰‖₂ = 1.
// It returns b and x.
func Prepare(a *sparse.CSR, seed int64) (b, x []float64, err error) {
	if _, err := sparse.Scale(a); err != nil {
		return nil, nil, err
	}
	b, x = problem.ZeroBSystem(a, seed)
	return b, x, nil
}

// ScalarOptions configures SolveScalar.
type ScalarOptions struct {
	Method     ScalarMethod
	MaxRelax   int     // 0 = one sweep (n relaxations)
	MaxSteps   int     // 0 = unlimited
	TargetNorm float64 // 0 = none
}

// SolveScalar runs a scalar method on A x = b, updating x in place, and
// returns the convergence trace (plus message statistics for Distributed
// Southwell; zero for other methods).
func SolveScalar(a *sparse.CSR, b, x []float64, opt ScalarOptions) (*solvers.Trace, solvers.DistStats, error) {
	sopt := solvers.Options{MaxRelax: opt.MaxRelax, MaxSteps: opt.MaxSteps, TargetNorm: opt.TargetNorm}
	switch opt.Method {
	case Jacobi:
		return solvers.Jacobi(a, b, x, sopt), solvers.DistStats{}, nil
	case GaussSeidel:
		return solvers.GaussSeidel(a, b, x, sopt), solvers.DistStats{}, nil
	case MulticolorGS:
		return solvers.MulticolorGS(a, b, x, sopt), solvers.DistStats{}, nil
	case SequentialSW:
		return solvers.SequentialSouthwell(a, b, x, sopt), solvers.DistStats{}, nil
	case ParallelSW:
		return solvers.ParallelSouthwell(a, b, x, sopt), solvers.DistStats{}, nil
	case DistributedSW:
		tr, st := solvers.DistributedSouthwell(a, b, x, sopt)
		return tr, st, nil
	}
	return nil, solvers.DistStats{}, fmt.Errorf("core: unknown scalar method %q", opt.Method)
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
	// Model overrides the α-β-γ cost model (nil = default). An explicit
	// &rma.CostModel{} is honored as genuinely free communication.
	Model *rma.CostModel
	// Parallel runs simulated rank phases on the shared kernel pool, as
	// wide as GOMAXPROCS (bit-identical results to running them inline).
	Parallel bool
	// Sched is accepted and ignored since PR 19 (rma.SchedNeighbor named
	// the removed neighborhood-epoch scheduler); it exists only because
	// benchmarks/e2e names it, and goes with ds_nbr_mc in the next
	// benchmark PR.
	Sched rma.Sched
	// Part, when non-nil, is a caller-provided partition (length n, values
	// in [0, Ranks)); otherwise the multilevel partitioner is used.
	Part []int
	// Setup, when non-nil, supplies the shared preprocessing of this
	// (matrix, partition, local solver) — layout plus local factorizations
	// (dmem.NewSetup) — so repeated runs skip partitioning and
	// factorization. Its layout must have been built for a and Ranks with
	// this exact Local mode; mismatches are rejected. When set, Part and
	// PartSeed are ignored (the setup's layout already fixes the
	// partition). Layout and factors are read-only; one reusable run state
	// is parked on the setup, so repeated solves (smoother, preconditioner)
	// allocate next to nothing and concurrent runs stay safe.
	Setup *dmem.Setup
	// Local selects the subdomain solver: dmem.LocalGS (default, one
	// Gauss-Seidel sweep — the paper's setting) or dmem.LocalDirect (exact
	// dense solve, the artifact's PARDISO option).
	Local dmem.LocalSolver
	// Faults, when non-nil, installs deterministic fault injection on the
	// simulated runtime (delays, duplicates, reordering, stragglers, rank
	// pauses — see rma.FaultPlan). Nil is a perfect network.
	Faults *rma.FaultPlan
	// Watchdog overrides the stagnation-watchdog patience window in
	// parallel steps (0 = dmem's default of 10).
	Watchdog int
	// Dense disables the active-set step engine and runs every rank every
	// phase (the zero value steps actively, which is bit-identical; see
	// dmem.Config.Dense). Diagnostic — results never depend on it.
	Dense bool
	// Trace, when non-nil, receives structured runtime and algorithm
	// events (see internal/obs). Tracing never changes results.
	Trace obs.Tracer
}

// SolveDistributed partitions A over opt.Ranks simulated processes and runs
// the selected distributed method. The returned result carries the per-step
// history, communication statistics, and the gathered solution.
func SolveDistributed(a *sparse.CSR, b, x []float64, opt DistOptions) (*dmem.Result, error) {
	if opt.Ranks <= 0 {
		return nil, fmt.Errorf("core: Ranks = %d, want >= 1", opt.Ranks)
	}
	var l *dmem.Layout
	if s := opt.Setup; s != nil {
		if s.Layout.A != a {
			return nil, fmt.Errorf("core: Setup was built for a different matrix")
		}
		if s.Layout.P != opt.Ranks {
			return nil, fmt.Errorf("core: Setup has %d ranks, want %d", s.Layout.P, opt.Ranks)
		}
		if s.Local != opt.Local {
			return nil, fmt.Errorf("core: Setup was built for local solver %v, want %v", s.Local, opt.Local)
		}
		l = s.Layout
	} else {
		part := opt.Part
		if part == nil {
			part = partition.Partition(a, opt.Ranks, partition.Options{Seed: opt.PartSeed})
		}
		var err error
		l, err = dmem.NewLayout(a, part, opt.Ranks)
		if err != nil {
			return nil, err
		}
	}
	cfg := dmem.Config{
		Steps: opt.Steps, Target: opt.Target, Model: opt.Model,
		Parallel: opt.Parallel, Setup: opt.Setup,
		Local: opt.Local, Dense: opt.Dense,
		Faults: opt.Faults, Watchdog: opt.Watchdog, Trace: opt.Trace,
	}
	switch opt.Method {
	case BlockJacobi:
		return dmem.BlockJacobi(l, b, x, cfg), nil
	case ParallelSWD:
		return dmem.ParallelSouthwell(l, b, x, cfg), nil
	case DistSWD:
		return dmem.DistributedSouthwell(l, b, x, cfg), nil
	case Piggyback2016:
		return dmem.Piggyback2016(l, b, x, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown distributed method %q", opt.Method)
}
