package dmem

import (
	"fmt"
	"math"

	"southwell/internal/obs"
	"southwell/internal/parallel"
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
	// LocalAuto picks the exact local solver per rank: dense LU for tiny
	// blocks (m ≤ autoDenseMax) and whenever the symbolic analysis predicts
	// a sparse solve would cost more flops than a dense one (pathological
	// fill), sparse LDLᵀ otherwise. See DESIGN.md §10 for the crossover
	// policy.
	LocalAuto
)

// autoDenseMax is LocalAuto's block-size crossover: at or below this many
// rows a dense LU factor fits comfortably in cache and its branch-free
// triangular solves beat the sparse solver's index-chasing, so sparse
// bookkeeping is not worth carrying. Above it the choice falls to the
// symbolic fill estimate (see newLocalFactor).
const autoDenseMax = 64

// Config controls a distributed solve.
type Config struct {
	// Steps is the number of parallel steps to run (the paper uses 50).
	Steps int
	// Target, when positive, stops the run early once the global residual
	// norm falls to Target or below (checked at step boundaries).
	Target float64
	// Model is the α-β-γ cost model; nil means rma.DefaultCostModel. An
	// explicit &rma.CostModel{} is honored as genuinely free communication
	// (every message and flop costs nothing in simulated time).
	Model *rma.CostModel
	// Parallel runs ranks on the rma worker-pool engine instead of
	// sequentially; results are bit-identical (see the engine-equivalence
	// tests).
	Parallel bool
	// Sched selects the pool engine's epoch discipline: the default
	// global barrier (rma.SchedBarrier) or per-neighborhood epoch
	// completion (rma.SchedNeighbor, requires Parallel; the world's
	// post/start groups are registered from the layout's coupling
	// neighborships). Results are bit-identical either way.
	Sched rma.Sched
	// Local selects the subdomain solver (default LocalGS).
	Local LocalSolver
	// Setup, when non-nil, supplies the shared preprocessing (layout +
	// local factorizations, see NewSetup) instead of rebuilding it in this
	// run. Its Layout must be the layout the run is given and its Local
	// mode must match Config.Local; runs only read the setup, so one value
	// can serve concurrent runs.
	Setup *Setup
	// Faults, when non-nil, installs deterministic fault injection on the
	// simulated world (rma.FaultPlan: delayed, duplicated, and reordered
	// deliveries, stragglers, rank pauses). Nil is a perfect network. The
	// plan is copied per run, so one plan value can drive many runs.
	Faults *rma.FaultPlan
	// Dense pins every rank: each rank's phase functions run every step, as
	// the paper's pseudocode is written. The zero value lets the step driver
	// skip provably quiescent ranks' host work (engine.go), which is
	// bit-identical — results, statistics, and simulated time never differ.
	// Config.pinned lists what else pins a run.
	Dense bool
	// Watchdog is the patience window, in parallel steps, of the
	// stagnation/deadlock watchdog (see Result.Deadlocked): a provably
	// stuck run stops immediately, and a run that has been idle for
	// Watchdog consecutive steps stops even if the fault layer could still
	// wake it. Values < 1 mean the default of 10.
	Watchdog int
	// Trace, when non-nil, receives structured events from the run (see
	// internal/obs): runtime-level Put/delivery/cost events from the world
	// plus algorithm-level decisions, residual sends, step records, and
	// watchdog verdicts. Tracing never changes results: solver output,
	// message counts, and SimTime are bit-identical with it on or off.
	Trace obs.Tracer
}

func (c Config) model() rma.CostModel {
	if c.Model == nil {
		return rma.DefaultCostModel()
	}
	return *c.Model
}

func (c Config) steps() int {
	if c.Steps <= 0 {
		return 50
	}
	return c.Steps
}

func (c Config) watchdogWindow() int {
	if c.Watchdog < 1 {
		return 10
	}
	return c.Watchdog
}

// refreshAfter is the starvation re-announce threshold, in consecutive
// steps without a relaxation or a receipt: half the watchdog's patience.
func (c Config) refreshAfter() int { return (c.watchdogWindow() + 1) / 2 }

// newWorld builds the simulated world for one run: the configured cost
// model and engine, with the fault plan (if any) installed before the
// first phase.
func newWorld(l *Layout, cfg Config) *rma.World {
	if s := cfg.Setup; s != nil {
		if s.Layout != l {
			panic("dmem: Config.Setup was built for a different layout")
		}
		if s.Local != cfg.Local {
			panic(fmt.Sprintf("dmem: Config.Setup local solver %v does not match Config.Local %v", s.Local, cfg.Local))
		}
	}
	w := rma.NewWorld(l.P, cfg.model())
	w.Parallel = cfg.Parallel
	w.Sched = cfg.Sched
	if cfg.Sched == rma.SchedNeighbor {
		// Register the PSCW post/start groups: every method's step-loop
		// Puts go only to layout neighbors, so the coupling neighborships
		// are exactly the access groups.
		w.SetNeighborhoods(l.NeighborLists())
	}
	w.InstallFaults(cfg.Faults)
	w.SetTracer(cfg.Trace)
	return w
}

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
	// Cumulative fault-injection counters (all zero on a perfect network).
	Delayed   int64 // messages the fault layer has held back so far
	Duped     int64 // duplicate landings injected so far
	Reordered int64 // delivery batches shuffled so far
	Paused    int64 // rank-phases spent paused so far
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
	// SchedWaits is the neighborhood scheduler's wait diagnostic (counts,
	// not seconds) — nil unless the run executed groups on
	// rma.SchedNeighbor. Scheduling-dependent; never part of results.
	SchedWaits *obs.WaitTally
	// ActiveHist is the step driver's diagnostic: per step, the number of
	// ranks scheduled to execute phase 1 (mid-step wakeups by landed traffic
	// are not recounted). Nil when every rank was pinned (Config.pinned).
	// An occupancy observation, like SchedWaits — never part of results.
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

// rankState is the dynamic per-rank state shared by all methods; the
// Southwell methods use the norm-estimate fields.
type rankState struct {
	rd   *RankData
	x    []float64
	r    []float64 // exact local residual
	norm float64   // exact local ‖r_p‖₂ (kept current at phase boundaries)

	gamma      []float64 // per neighbor: (estimate of) neighbor's norm
	gammaTilde []float64 // per neighbor: neighbor's estimate of my norm (DS)
	z          []float64 // per ext row: ghost residual estimate (DS)
	lastTold   float64   // last norm broadcast to neighbors (PS)
	sentTo     []bool    // per neighbor: wrote to them in the last send phase
	// Crossing-correction state (DS): the norm and boundary residuals this
	// rank sent when it last relaxed, used to mirror the estimate a
	// crossing neighbor computes from them (keeping Γ̃ exact; DESIGN.md §5).
	lastSentNorm float64
	sentBnd      [][]float64 // per neighbor: boundary residuals at send
	// seqSeen is, per neighbor, the newest payload sequence number whose
	// estimates were absorbed. Under fault injection a delayed message can
	// arrive after fresher information; its residual deltas are still
	// applied (they are additive and exact regardless of order), but its
	// stale Γ/Γ̃/ghost values must not overwrite newer ones. Always zero on
	// a perfect network (messages arrive in order, never late).
	seqSeen []int64

	extDelta []float64 // scratch, per ext row
	relaxed  bool      // relaxed in the current step
	// Starvation tracking, used only under fault injection (DS): gotMsg is
	// set by the absorb paths when any non-duplicate message is read, and
	// starved counts consecutive steps with neither a relaxation nor a
	// receipt. A starving rank re-announces its exact residual state so
	// fault-desynced Γ/Γ̃ estimates become exact again (see distsw.go).
	gotMsg  bool
	starved int
	// starveStamp is the step through which starved is materialized: a
	// sleeping rank's counter would grow by one per step, so its true value
	// at the end of step s is starved + (s - starveStamp), reconciled when
	// the rank wakes (stepEngine.admit). Always the last completed step for
	// a rank that executed it; unused on a perfect network.
	starveStamp int

	// Persistent per-neighbor send buffers: message payloads point into
	// these, so the steady-state message path allocates nothing. A buffer
	// written in one phase is read by the receiver in the next phase and
	// not reused before the phase after that (solve sends refill only on
	// the next step's relax phase; explicit residual sends have their own
	// buffer), so sender reuse never races with receiver reads.
	sendDeltas [][]float64 // per neighbor: deltasFor output, len(BndExt[j])
	sendBnd    [][]float64 // per neighbor: boundaryResiduals output, len(MyBnd[j])
	resBnd     [][]float64 // per neighbor: explicit-update boundary residuals

	// direct, when non-nil, is the factorization of the local diagonal
	// block used by LocalDirect/LocalAuto; dscratch is its solve buffer.
	direct   localFactor
	dscratch []float64
}

// localFactor is a factored local diagonal block: the factor-once /
// solve-many contract both exact local solvers satisfy. Solve computes
// x = A_pp⁻¹ b; SolveFlops is the per-solve flop count the α-β-γ cost
// model charges (the factorization itself happens at setup, which the
// paper does not time).
type localFactor interface {
	Solve(b, x []float64)
	SolveFlops() float64
}

// relaxLocal dispatches to the configured local solver and returns the
// flop count to charge.
func (rs *rankState) relaxLocal() float64 {
	if rs.direct != nil {
		return rs.relaxDirect()
	}
	return rs.relaxSweep()
}

// relaxDirect solves the local block exactly: x_p += A_pp^{-1} r_p, which
// zeroes the local residual and accumulates -A_qp d into extDelta. The
// charged cost is the factorization's actual solve cost (O(nnz(L)) for the
// sparse backend, 2m² for the dense one) plus the coupling scatter and the
// solution update — not the hard-coded dense estimate of old.
func (rs *rankState) relaxDirect() float64 {
	rd := rs.rd
	d := rs.dscratch
	rs.direct.Solve(rs.r, d)
	for li := range rs.r {
		rs.x[li] += d[li]
		rs.r[li] = 0
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d[li]
		}
	}
	return rs.direct.SolveFlops() + float64(rd.NNZ) + float64(rd.M())
}

// localBlockCSR assembles rank rd's diagonal block A_pp as a standalone
// CSR (local row/column indices, diagonal included) for the sparse
// factorization. The block of a structurally symmetric matrix restricted
// to one rank's rows is itself structurally symmetric, which is exactly
// what spdirect.Analyze requires.
func localBlockCSR(rd *RankData) (rowPtr, col []int, val []float64) {
	m := rd.M()
	rowPtr = make([]int, m+1)
	for li := 0; li < m; li++ {
		rowPtr[li+1] = rowPtr[li] + 1 + (rd.LocPtr[li+1] - rd.LocPtr[li])
	}
	col = make([]int, rowPtr[m])
	val = make([]float64, rowPtr[m])
	w := 0
	for li := 0; li < m; li++ {
		col[w], val[w] = li, rd.Diag[li]
		w++
		for k := rd.LocPtr[li]; k < rd.LocPtr[li+1]; k++ {
			col[w], val[w] = int(rd.LocCol[k]), rd.LocVal[k]
			w++
		}
	}
	return rowPtr, col, val
}

// newLocalFactor factors one rank's diagonal block under the configured
// policy (see factorShared in setup.go for the dense/sparse decision) and
// binds it to fresh per-run scratch.
func newLocalFactor(rd *RankData, mode LocalSolver) (localFactor, error) {
	sf, err := factorShared(rd, mode)
	if err != nil {
		return nil, err
	}
	return bind(sf), nil
}

// newRankStates initializes per-rank state from a global initial guess,
// with exact residuals, exact neighbor norms (setup exchange, not counted),
// and exact ghosts.
func newRankStates(l *Layout, b, x []float64) []*rankState {
	rGlob := make([]float64, l.A.N)
	l.A.Residual(b, x, rGlob)
	states := make([]*rankState, l.P)
	for p := 0; p < l.P; p++ {
		rd := l.Ranks[p]
		m := rd.M()
		rs := &rankState{
			rd:         rd,
			x:          make([]float64, m),
			r:          make([]float64, m),
			gamma:      make([]float64, rd.Degree()),
			gammaTilde: make([]float64, rd.Degree()),
			z:          make([]float64, len(rd.ExtGlob)),
			sentTo:     make([]bool, rd.Degree()),
			seqSeen:    make([]int64, rd.Degree()),
			sentBnd:    make([][]float64, rd.Degree()),
			extDelta:   make([]float64, len(rd.ExtGlob)),
			sendDeltas: make([][]float64, rd.Degree()),
			sendBnd:    make([][]float64, rd.Degree()),
			resBnd:     make([][]float64, rd.Degree()),
		}
		for j := range rd.Nbrs {
			rs.sendDeltas[j] = make([]float64, len(rd.BndExt[j]))
			rs.sendBnd[j] = make([]float64, len(rd.MyBnd[j]))
			rs.resBnd[j] = make([]float64, len(rd.MyBnd[j]))
		}
		for li, g := range rd.Glob {
			rs.x[li] = x[g]
			rs.r[li] = rGlob[g]
		}
		for e, g := range rd.ExtGlob {
			rs.z[e] = rGlob[g]
		}
		rs.norm = rs.computeNorm()
		states[p] = rs
	}
	// Exact initial neighbor norms and Γ̃ (setup exchange).
	for p := 0; p < l.P; p++ {
		rs := states[p]
		for j, q := range rs.rd.Nbrs {
			rs.gamma[j] = states[q].norm
			rs.gammaTilde[j] = rs.norm
		}
		rs.lastTold = rs.norm
	}
	return states
}

// computeNorm returns ‖r‖₂ of the local residual. The naive
// sum-of-squares is kept as the only path that ever runs on finite sums —
// its bits are pinned by the equivalence suites — and a scaled two-pass
// fallback handles |r_i| ≳ 1e154, where v*v overflows to +Inf even though
// the true norm is representable.
func (rs *rankState) computeNorm() float64 {
	s := 0.0
	for _, v := range rs.r {
		s += v * v
	}
	if !math.IsInf(s, 1) {
		return math.Sqrt(s)
	}
	maxAbs := 0.0
	for _, v := range rs.r {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsInf(maxAbs, 1) {
		return math.Inf(1)
	}
	inv := 1 / maxAbs
	t := 0.0
	for _, v := range rs.r {
		sv := v * inv
		t += sv * sv
	}
	return maxAbs * math.Sqrt(t)
}

// relaxSweep performs one Gauss-Seidel sweep over the local rows,
// maintaining the exact local residual and accumulating residual deltas
// for external rows in extDelta (which the caller must have zeroed, and is
// responsible for draining into messages and/or the ghost layer).
// It returns the flop count for cost charging.
//
// The two inner loops walk the split-CSR arrays (layout.go): no per-nonzero
// class branch, no IsExt/ColExt indirection, uint32 column loads. Local
// entries touch only r[] and ext entries only extDelta[], and each class
// preserves source column order, so every memory location sees the exact
// update sequence of the interleaved walk — Gauss–Seidel bits unchanged.
func (rs *rankState) relaxSweep() float64 {
	rd := rs.rd
	for li := range rs.r {
		d := rs.r[li] / rd.Diag[li]
		rs.x[li] += d
		rs.r[li] = 0 // diagonal contribution: r_li -= a_ii * d exactly
		for k := rd.LocPtr[li]; k < rd.LocPtr[li+1]; k++ {
			rs.r[rd.LocCol[k]] -= rd.LocVal[k] * d
		}
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d
		}
	}
	return float64(2*rd.NNZ + 3*rd.M())
}

// zeroExtDelta clears the scratch delta array (cheap: sized by ghost count).
func (rs *rankState) zeroExtDelta() {
	for i := range rs.extDelta {
		rs.extDelta[i] = 0
	}
}

// boundaryResiduals collects the residual values of this rank's boundary
// rows toward neighbor j into the persistent per-neighbor send buffer (the
// slice crosses the simulated network by reference and is only rewritten
// on this rank's next relax phase, after the receiver has read it).
func (rs *rankState) boundaryResiduals(j int) []float64 {
	out := rs.sendBnd[j]
	for k, li := range rs.rd.MyBnd[j] {
		out[k] = rs.r[li]
	}
	return out
}

// resBoundaryResiduals is boundaryResiduals into the separate buffer used
// by explicit residual updates, which are sent one phase after the solve
// message: the solve buffer may still be in flight to the same neighbor.
func (rs *rankState) resBoundaryResiduals(j int) []float64 {
	out := rs.resBnd[j]
	for k, li := range rs.rd.MyBnd[j] {
		out[k] = rs.r[li]
	}
	return out
}

// deltasFor collects extDelta values for neighbor j's boundary slots into
// the persistent per-neighbor send buffer.
func (rs *rankState) deltasFor(j int) []float64 {
	out := rs.sendDeltas[j]
	for k, e := range rs.rd.BndExt[j] {
		out[k] = rs.extDelta[e]
	}
	return out
}

// applyDeltas adds incoming residual deltas from neighbor j to the local
// boundary rows (same static ordering on both sides; see layout tests).
func (rs *rankState) applyDeltas(j int, deltas []float64) {
	for k, li := range rs.rd.MyBnd[j] {
		rs.r[li] += deltas[k]
	}
}

// overwriteGhost replaces the ghost residuals of neighbor j's boundary rows
// with the values the neighbor sent.
func (rs *rankState) overwriteGhost(j int, bnd []float64) {
	for k, e := range rs.rd.BndExt[j] {
		rs.z[e] = bnd[k]
	}
}

// updateGhostAndGamma applies this rank's own extDelta contribution to the
// ghost layer for neighbor j and adjusts the norm estimate Γ[j] by the
// boundary energy change — the communication-free estimate improvement at
// the heart of Distributed Southwell (§3).
func (rs *rankState) updateGhostAndGamma(j int) {
	adj := 0.0
	for _, e := range rs.rd.BndExt[j] {
		old := rs.z[e]
		nw := old + rs.extDelta[e]
		adj += nw*nw - old*old
		rs.z[e] = nw
	}
	g2 := rs.gamma[j]*rs.gamma[j] + adj
	if g2 < 0 {
		g2 = 0
	}
	rs.gamma[j] = math.Sqrt(g2)
}

// configureLocal prepares the configured local solver on every rank.
// Ranks factor concurrently on the shared kernel pool: each rank's factor
// is a pure sequential function of its own block, written to its own
// state slot, so block boundaries and worker count never influence a
// single bit of the result (the width bit-identity test pins this). The
// diagonal blocks of an SPD matrix are SPD, so factorization failure means
// the input violated the library's documented preconditions — panic rather
// than limp on, with the lowest failing rank for determinism.
func configureLocal(states []*rankState, cfg Config) {
	if cfg.Local != LocalDirect && cfg.Local != LocalAuto {
		return
	}
	if s := cfg.Setup; s != nil && s.factors != nil {
		// Shared setup: the expensive factorizations already exist — each
		// run just binds them to its own private scratch. The shared
		// factors are read-only from here on.
		for pr, rs := range states {
			rs.direct = bind(s.factors[pr])
			rs.dscratch = make([]float64, rs.rd.M())
		}
		return
	}
	p := len(states)
	nb := rankBlockCount(p)
	blocks := parallel.SplitN(p, nb, make([]parallel.Range, 0, nb))
	errs := make([]error, p)
	var factor parallel.Task
	factor.F = func(b int) {
		for pr := blocks[b].Lo; pr < blocks[b].Hi; pr++ {
			rs := states[pr]
			lf, err := newLocalFactor(rs.rd, cfg.Local)
			if err != nil {
				errs[pr] = err
				continue
			}
			rs.direct = lf
			rs.dscratch = make([]float64, rs.rd.M())
		}
	}
	parallel.Default().Run(&factor, nb)
	for pr, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("dmem: local block of rank %d not factorizable: %v", pr, err))
		}
	}
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
	if np != nq { //dslint:ignore floatcmp
		return np > nq
	}
	return p < q
}

// flatNorm combines exact local norms into the global residual norm, from
// a maintained flat table of their squares in rank order (stepEngine.tally
// refreshes the member slots; sleepers' norms cannot change) — a sequential
// read instead of P pointer chases.
func flatNorm(norms2 []float64) float64 {
	s := 0.0
	for _, v := range norms2 {
		s += v
	}
	return math.Sqrt(s)
}

// gatherX assembles the global solution vector.
func gatherX(l *Layout, states []*rankState) []float64 {
	x := make([]float64, l.A.N)
	for p, rs := range states {
		for li, g := range l.Ranks[p].Glob {
			x[g] = rs.x[li]
		}
	}
	return x
}

// payload bytes: 8 per float plus a small header.
func msgBytes(floats int) int { return 8*floats + 16 }

// debugHook, when set (by tests), is invoked with the full rank state at
// every step boundary so cross-rank invariants can be checked.
var debugHook func(states []*rankState)

// record appends a step record with cumulative counters (and mirrors it
// onto the trace's control track when tracing is on). norm is the global
// residual norm (flatNorm).
func record(res *Result, w *rma.World, states []*rankState, norm float64, step, relaxedRanks, cumRelax int) {
	if debugHook != nil {
		debugHook(states)
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
		Delayed:      st.DelayedMsgs,
		Duped:        st.DupMsgs,
		Reordered:    st.ReorderedBatches,
		Paused:       st.PausedRankPhases,
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

// traceDecision emits rank p's relax/hold decision for one step. Called
// from rank p's phase function, so it writes only p's tracer shard (the
// obs.Tracer contract); the max-Γ scan runs only when tracing is on.
func traceDecision(w *rma.World, step, p int, rs *rankState, relaxed bool) {
	tr := w.Tracer()
	if tr == nil {
		return
	}
	maxG := 0.0
	for _, g := range rs.gamma {
		if g > maxG {
			maxG = g
		}
	}
	e := obs.Event{
		Kind:  obs.KindDecision,
		Rank:  int32(p),
		Step:  int32(step),
		V1:    rs.norm,
		V2:    maxG,
		Ts:    w.Now(),
		Phase: w.PhaseIndex(),
	}
	if relaxed {
		e.Flag = obs.FlagRelaxed
	}
	tr.Emit(e)
}

// traceResSend emits an explicit residual update from rank p toward
// neighbor rank `to` (-1 = all neighbors). trigger is the value that fired
// the send — Γ̃[j] for the deadlock-risk rule, the announced norm for the
// Parallel Southwell broadcast.
func traceResSend(w *rma.World, step, p, to int, trigger float64, rs *rankState, refresh bool) {
	tr := w.Tracer()
	if tr == nil {
		return
	}
	e := obs.Event{
		Kind:  obs.KindResSend,
		Rank:  int32(p),
		Step:  int32(step),
		A:     int32(to),
		V1:    trigger,
		V2:    rs.norm,
		Ts:    w.Now(),
		Phase: w.PhaseIndex(),
	}
	if refresh {
		e.Flag = obs.FlagRefresh
	}
	tr.Emit(e)
}

// watchdog is the stagnation/deadlock detector shared by every method,
// generalizing the detector that used to live inside Piggyback2016. It
// watches each completed parallel step for an *idle* step — no rank
// relaxed, no message was staged, and no message landed — and stops the
// run when
//
//   - the step was idle and the fault layer is quiescent: the state
//     machine is deterministic, so every later step would repeat this one
//     exactly (on a perfect network this is precisely the 2016 piggyback
//     deadlock rule: a step without relaxations stages and lands nothing);
//   - or window consecutive steps were idle even though the fault layer
//     could still wake the run (a pause far in the future): patience
//     bound, off on a perfect network where the first idle step already
//     trips the provable rule.
type watchdog struct {
	window        int
	idle          int   // consecutive idle steps
	lastSent      int64 // cumulative staged messages at the previous step
	lastDelivered int64 // cumulative landed messages at the previous step
}

func newWatchdog(cfg Config, w *rma.World) *watchdog {
	st := w.Stats()
	return &watchdog{
		window:        cfg.watchdogWindow(),
		lastSent:      st.TotalMsgs(),
		lastDelivered: st.Delivered,
	}
}

// observe inspects one completed parallel step and reports whether the run
// is stuck and should stop. Idle steps and the final verdict land on the
// trace's control track.
func (wd *watchdog) observe(w *rma.World, step, relaxedRanks int) bool {
	st := w.Stats()
	sent, delivered := st.TotalMsgs(), st.Delivered
	idle := relaxedRanks == 0 && sent == wd.lastSent && delivered == wd.lastDelivered
	wd.lastSent, wd.lastDelivered = sent, delivered
	if !idle {
		wd.idle = 0
		return false
	}
	wd.idle++
	stop := w.FaultsQuiescent() || wd.idle >= wd.window
	if tr := w.Tracer(); tr != nil {
		flag := obs.FlagWatchdogIdle
		if stop {
			flag = obs.FlagWatchdogStop
		}
		tr.Emit(obs.Event{
			Kind:  obs.KindWatchdog,
			Rank:  obs.ControlRank,
			Step:  int32(step),
			Flag:  flag,
			A:     int32(wd.idle),
			Ts:    w.Now(),
			Phase: w.PhaseIndex(),
		})
	}
	return stop
}

// deadlockAt marks a watchdog stop at step — unless the run had in fact
// converged to (numerical) zero and simply has nothing left to do.
func (res *Result) deadlockAt(step int) {
	if res.Final().ResNorm > 1e-14 {
		res.Deadlocked = true
		res.DeadlockStep = step
	}
}

// finish fills the summary fields of a result.
func finish(res *Result, l *Layout, w *rma.World, states []*rankState) {
	res.Stats = w.Stats()
	res.SchedWaits = w.WaitTally()
	res.X = gatherX(l, states)
	if steps := len(res.History) - 1; steps > 0 {
		sum := 0.0
		for _, h := range res.History[1:] {
			sum += float64(h.RelaxedRanks)
		}
		res.ActiveFraction = sum / float64(steps) / float64(l.P)
	}
}
