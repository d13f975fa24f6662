package dmem

import (
	"fmt"
	"math"

	"southwell/internal/obs"
	"southwell/internal/rma"
)

// LocalSolver selects how a rank relaxes its subdomain.
type LocalSolver int

const (
	// LocalGS performs one Gauss-Seidel sweep per relaxation — the
	// artifact's `-loc_solver gs` default used in every paper experiment.
	LocalGS LocalSolver = iota
	// LocalDirect solves the local block exactly through a sparse LDLᵀ
	// factorization (internal/spdirect: RCM ordering, symbolic analysis,
	// up-looking numeric factorization) computed once at setup and reused
	// by every relaxation — the role MKL PARDISO plays in the artifact.
	// Per-relaxation cost is O(nnz(L)), so the direct option is usable at
	// every subdomain size, not just tiny blocks.
	LocalDirect
)

// String returns the -loc_solver spelling of m.
func (m LocalSolver) String() string {
	switch m {
	case LocalGS:
		return "gs"
	case LocalDirect:
		return "direct"
	}
	return fmt.Sprintf("LocalSolver(%d)", int(m))
}

// ParseLocalSolver resolves a -loc_solver value: gs, direct, or the
// artifact's name for the direct solver, pardiso.
func ParseLocalSolver(s string) (LocalSolver, error) {
	switch s {
	case "gs":
		return LocalGS, nil
	case "direct", "pardiso":
		return LocalDirect, nil
	}
	return 0, fmt.Errorf("-loc_solver %q: unknown (use gs, direct, or pardiso)", s)
}

// Config controls a distributed solve. The matrix, its distribution and the
// local solver are not here: they are the Setup every method is handed.
type Config struct {
	// Steps is the number of parallel steps to run (the paper uses 50).
	Steps int
	// Target, when positive, stops the run early once the global residual
	// norm falls to Target or below (checked at step boundaries).
	Target float64
	// Parallel runs rank phases on the shared kernel pool (as wide as
	// GOMAXPROCS) instead of inline; results are bit-identical (see the
	// engine-equivalence tests).
	Parallel bool
	// Faults, when non-nil, installs deterministic message delays on the
	// simulated world (rma.FaultPlan). Nil is a perfect network. The plan is
	// copied per run, so one plan value can drive many runs.
	Faults *rma.FaultPlan
	// Dense pins every rank: each rank's phase functions run every step, as
	// the paper's pseudocode is written. The zero value lets the step driver
	// skip provably quiescent ranks' host work (engine.go), which is
	// bit-identical — results, statistics, and simulated time never differ.
	// Config.pinned lists what else pins a run.
	Dense bool
	// Trace, when non-nil, receives structured events from the run (see
	// internal/obs): runtime-level Put/delivery/cost events from the world
	// plus algorithm-level decisions, residual sends, step records, and
	// watchdog verdicts. Tracing never changes results: solver output,
	// message counts, and SimTime are bit-identical with it on or off. Nor
	// does it pin a run or cost O(P) a phase: a rank that sleeps through a
	// phase with an untouched window logs nothing, so a trace is O(active
	// work) and a Dense run's trace has rows the same unpinned run's lacks.
	Trace *obs.Recorder

	// watchdog is the patience window, in parallel steps, of the
	// stagnation/deadlock watchdog (see Result.Deadlocked): a provably
	// stuck run stops immediately, and a run that has been idle for
	// watchdog consecutive steps stops even if the fault layer could still
	// wake it. Values < 1 mean the default of 10; only tests set it.
	watchdog int
}

func (c Config) steps() int {
	if c.Steps <= 0 {
		return 50
	}
	return c.Steps
}

func (c Config) watchdogWindow() int {
	if c.watchdog < 1 {
		return 10
	}
	return c.watchdog
}

// refreshAfter is the starvation re-announce threshold, in consecutive
// steps without a relaxation or a receipt: half the watchdog's patience.
func (c Config) refreshAfter() int { return (c.watchdogWindow() + 1) / 2 }

// reached reports whether a global residual norm has met a positive Target.
func (c Config) reached(norm float64) bool { return c.Target > 0 && norm <= c.Target }

// StepStats is the global state after one parallel step, with cumulative
// communication counters (so differences give per-step costs).
type StepStats struct {
	Step         int
	ResNorm      float64
	RelaxedRanks int
	Relaxations  int // cumulative row relaxations
	SolveMsgs    int64
	ResMsgs      int64
	SimTime      float64
}

// TotalMsgs returns cumulative messages at this step.
func (s StepStats) TotalMsgs() int64 { return s.SolveMsgs + s.ResMsgs }

// Result is the outcome of a distributed run.
type Result struct {
	Method  string
	P       int
	N       int
	History []StepStats // History[0] is the initial state (step 0)
	Stats   rma.Stats
	// ActiveFraction is the mean over steps of (relaxing ranks)/P — the
	// paper's "active processes" metric.
	ActiveFraction float64
	// Deadlocked reports that the stagnation watchdog stopped the run with
	// a nonzero residual. On a perfect network only the 2016 piggyback
	// variant can set this (the paper's §2.4 dichotomy); under fault
	// injection every method is monitored.
	Deadlocked   bool
	DeadlockStep int
	X            []float64 // gathered global solution
	// ActiveHist is the step driver's diagnostic: per step, the number of
	// ranks scheduled to execute phase 1 (mid-step wakeups by landed traffic
	// are not recounted). Nil when every rank was pinned (Config.pinned).
	// An occupancy observation — never part of results.
	ActiveHist []int
}

// Final returns the last step record.
func (r *Result) Final() StepStats { return r.History[len(r.History)-1] }

// StepsToNorm returns the (fractionally interpolated) parallel step at
// which the residual first reached target, interpolating linearly on
// log10(‖r‖) between recorded steps as the paper does for Table 2. It is
// InterpAtNorm with the step number as the interpolated quantity.
func (r *Result) StepsToNorm(target float64) (float64, bool) {
	return r.InterpAtNorm(target, func(h StepStats) float64 { return float64(h.Step) })
}

// InterpAtNorm linearly interpolates any cumulative quantity (selected by
// pick) to the moment the residual norm *first* crossed down to target.
//
// Semantics on non-monotone histories (Block Jacobi diverges and can
// recross the target on several suite matrices): the earliest record at or
// below target wins, interpolated on log10(‖r‖) against its predecessor;
// later excursions back above target are ignored. Degenerate geometry
// never produces NaN or ±Inf: a history that starts at or below target
// reports its initial record, an exact-zero endpoint or a non-finite
// predecessor snaps to the crossing record instead of interpolating in log
// space, and NaN norms (overflowed divergence) are never crossings.
func (r *Result) InterpAtNorm(target float64, pick func(StepStats) float64) (float64, bool) {
	if len(r.History) == 0 {
		return 0, false
	}
	if r.History[0].ResNorm <= target {
		return pick(r.History[0]), true
	}
	lt := math.Log10(target)
	for i := 1; i < len(r.History); i++ {
		cur := r.History[i]
		if !(cur.ResNorm <= target) { // NaN-safe: NaN never crosses
			continue
		}
		prev := r.History[i-1]
		l0 := math.Log10(prev.ResNorm)
		if cur.ResNorm <= 0 || math.IsInf(lt, -1) || math.IsNaN(l0) || math.IsInf(l0, 1) {
			return pick(cur), true
		}
		l1 := math.Log10(cur.ResNorm)
		f := (l0 - lt) / (l0 - l1)
		return pick(prev) + f*(pick(cur)-pick(prev)), true
	}
	return 0, false
}

// sqrtNonNeg is sqrt clamped at zero for incrementally adjusted squared
// norms that can go slightly negative in floating point.
func sqrtNonNeg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// winsOver is the Parallel Southwell criterion comparison with rank-id tie
// breaking (DESIGN.md §5): the relaxed set stays independent under exact
// norms, and at least one rank always qualifies.
func winsOver(np float64, p int, nq float64, q int) bool {
	// Bit-exact by design: both ranks evaluate the same pair, so the
	// tie-break must agree exactly or the relaxed set loses independence.
	if np != nq {
		return np > nq
	}
	return p < q
}

// gatherX assembles the global solution vector.
func gatherX(l *Layout, states []*rankState) []float64 {
	x := make([]float64, l.A.N)
	for p, rs := range states {
		for li, g := range l.rows(p) {
			x[g] = rs.x[li]
		}
	}
	return x
}

// payload bytes: 8 per float plus a small header.
func msgBytes(floats int) int { return 8*floats + 16 }

// debugHook, when set (by tests), is invoked with the world and the full
// rank state at every step boundary so cross-rank invariants can be checked.
var debugHook func(w *rma.World, states []*rankState)

// record appends a step record with cumulative counters (and mirrors it
// onto the trace's control track when tracing is on). norm is the global
// residual norm (norm2 of runState.norms).
func record(res *Result, w *rma.World, states []*rankState, norm float64, step, relaxedRanks, cumRelax int) {
	if debugHook != nil {
		debugHook(w, states)
	}
	st := w.Stats()
	res.History = append(res.History, StepStats{
		Step:         step,
		ResNorm:      norm,
		RelaxedRanks: relaxedRanks,
		Relaxations:  cumRelax,
		SolveMsgs:    st.SolveMsgs,
		ResMsgs:      st.ResMsgs,
		SimTime:      st.SimTime,
	})
	if tr := w.Tracer(); tr != nil {
		tr.Emit(obs.Event{
			Kind:  obs.KindStep,
			Rank:  obs.ControlRank,
			Step:  int32(step),
			V1:    norm,
			V2:    st.SimTime,
			A:     int32(relaxedRanks),
			I1:    st.TotalMsgs(),
			I2:    st.SolveBytes + st.ResBytes,
			Ts:    w.Now(),
			Phase: w.PhaseIndex(),
		})
	}
}

// finish fills the summary fields of a result.
func finish(res *Result, l *Layout, w *rma.World, states []*rankState) {
	res.Stats = w.Stats()
	res.X = gatherX(l, states)
	if steps := len(res.History) - 1; steps > 0 {
		sum := 0.0
		for _, h := range res.History[1:] {
			sum += float64(h.RelaxedRanks)
		}
		res.ActiveFraction = sum / float64(steps) / float64(l.P)
	}
}
