package dmem

import (
	"math"
	"slices"

	"southwell/internal/obs"
	"southwell/internal/rma"
)

// The step driver (DESIGN.md §14). In the paper all methods are one program
// shape — a parallel step is two or three one-sided access epochs — and
// differ only in what a rank does inside an epoch. solve owns everything
// else: the run state (world, rank states), the step loop (reset relax flags
// → run the step's epochs → tally → starvation rule → record → trace →
// watchdog → target) and the result summary. A method supplies a stepSpec.
//
// The driver steps an active set. Distributed and Parallel Southwell relax
// only local residual-norm maxima, so at paper scale most ranks spend most
// steps provably idle: empty window, unchanged state, and a decision that is
// a replay of last step's hold. The driver tracks exactly that quiescence
// and dispatches each epoch over the active subset through
// rma.RunPhaseActive, charging sleepers their unconditional phase-1 flops
// (the decision scan, one flop per neighbor) through the idle vector so
// simulated time, message statistics, and chaos schedules stay
// bit-identical to running every rank. A fault plan or a tracer changes
// none of this: the runtime has one phase boundary, and both ride it.
//
// The quiescence invariant: a rank may sleep only after an executed step
// in which it did not relax and read no mail. Its state is then unchanged
// since a step in which it held, and every step function is deterministic
// in (state, inbox), so running it would reproduce that hold — and its
// phase-2 triggers are self-extinguishing (a fired send sets the trigger's
// guard variable to its threshold) — for as long as the state stays
// unchanged. State can change only through its own relaxation (it is
// asleep), a landed message (the boundary scans catch every landing,
// including chaos-delayed deliveries), or the starvation clock (converted from a per-step poll into a stamped
// counter plus a wakeup calendar). Waking a clean rank is always safe: its
// executed step is an exact no-op beyond the idle charge, so running any
// superset of the minimal active set is bit-identical. Running all ranks is
// the paper's pseudocode as written; it is not a second code path but the
// case "no rank ever sleeps" (Config.pinned).

// stepSpec is what a method hands the driver: its name, the step's access
// epochs in order, and two promises.
//
// quiescent promises the invariant above: the first phase charges exactly
// the rank's degree in flops unconditionally (the decision scan) and later
// phases charge nothing unconditionally; a rank that held with an empty
// window replays that hold until its state changes; phase-2 triggers
// self-extinguish. The zero value is "never quiescent": every rank runs every
// step.
//
// starvation marks a method whose ranks keep the starvation re-announce
// clock (rankState.starved); it ticks only under a fault plan.
type stepSpec struct {
	name       string
	phases     []func(rank int)
	quiescent  bool
	starvation bool
}

// pinned reports whether every rank must run every step of this method
// under this configuration — the one place the rules live: the method may
// not promise quiescence, or Dense asks for the pseudocode as written.
func (c Config) pinned(spec stepSpec) bool {
	return !spec.quiescent || c.Dense
}

// solve runs one method to completion on a run state of s (runstate.go): the
// one parked on it, or a new one, parked again only on normal return — a
// panic mid-solve leaves the slot empty.
func solve(s *Setup, b, x []float64, cfg Config, build func(st *runState, step *int) stepSpec) *Result {
	st := s.takeRunState()
	res := st.run(b, x, cfg, build)
	st.park(s)
	return res
}

// run resets the state and steps it to the end of the solve. build is called
// once and returns the method's stepSpec; the phase closures it builds reach
// the world and rank states through st and read the current step through the
// pointer (sequence numbers, trace events), so the driver re-dispatches the
// same closures every step without allocating.
func (st *runState) run(b, x []float64, cfg Config, build func(st *runState, step *int) stepSpec) *Result {
	l, w, states, e, norms := st.l, st.w, st.states, &st.eng, st.norms
	var step int
	spec := build(st, &step)
	st.reset(b, x, cfg, spec)
	// History is sized once at the loop's maximum, as e.hist is: a record
	// per step plus step 0.
	res := &Result{Method: spec.name, P: l.P, N: l.A.N, History: make([]StepStats, 0, cfg.steps()+1)}
	record(res, w, states, norm2(norms), 0, 0, 0)
	wd := newWatchdog(cfg, w)
	cumRelax := 0
	// The target is tested before every step, the first included: a solve
	// that starts at or below it runs no step and sends nothing.
	for step = 1; step <= cfg.steps() && !cfg.reached(res.Final().ResNorm); step++ {
		// Relax flags are reset here, on the driving goroutine, before any
		// epoch of the step runs.
		e.resetRelaxed()
		e.runStep(step, spec.phases)
		relaxedRanks, rows := e.tally(norms)
		cumRelax += rows
		e.endStep(step)
		record(res, w, states, norm2(norms), step, relaxedRanks, cumRelax)
		e.traceStep(step)
		// The watchdog fires, on a perfect network, at the first step without
		// relaxations — nothing was sent, so no estimate can ever change;
		// under faults it also waits out in-flight deliveries. A NaN norm
		// stops the run too: no later step can bring it back, and Block
		// Jacobi, which relaxes unconditionally, would never go idle on it.
		if wd.observe(w, step, relaxedRanks) || math.IsNaN(res.Final().ResNorm) {
			res.deadlockAt(step)
			break
		}
	}
	res.ActiveHist = e.hist
	finish(res, st)
	return res
}

// stepEngine tracks the active set for one run. Its tables live in the run
// state and runState.reset rewinds them. All fields are touched only on the
// driving goroutine, between phases.
type stepEngine struct {
	w      *rma.World
	states []*rankState
	pinned bool // no rank ever sleeps: list is all ranks for the whole run

	starve       bool // starvation rule + (unpinned) stamps and wakeup calendar
	refreshAfter int

	// list is the ascending member list — the view every per-step walk
	// (phase dispatch, flag reset, norm tally, sleep scan) runs over. When
	// ranks may sleep it mirrors inSet: admit appends to admitted, syncList
	// merges those into list lazily, and endStep compacts removals in place.
	// Both have capacity P: only a non-member is admitted, so together they
	// never hold more than P ranks.
	list     []int32
	admitted []int32

	// Read by unpinned runs only.
	inSet   []bool    // rank executes the current step's remaining phases
	sawMail []bool    // rank's window was nonempty at a boundary this step
	idleDeg []float64 // phase-1 idle charge: the unconditional degree scan
	// calendar maps a future step to the ranks whose starvation refresh
	// first fires there. Consumed by exact-key lookup at beginStep, never
	// iterated, so map order cannot influence the run.
	calendar map[int][]int32
	hist     []int // per-step phase-1 active counts → Result.ActiveHist
}

// admit ensures rank p executes the step's remaining phases, reconciling
// its lazily-stamped starvation counter on the sleep→active edge so the
// phase-2 refresh test reads exactly the value the per-step rule would
// have accumulated by the end of step-1.
func (e *stepEngine) admit(p, step int, mail bool) {
	if mail {
		e.sawMail[p] = true
	}
	if e.inSet[p] {
		return
	}
	e.inSet[p] = true
	e.admitted = append(e.admitted, int32(p))
	if e.starve {
		// While asleep the rank neither relaxed nor received, so the
		// per-step rule would have incremented starved once per step since
		// the stamp.
		rs := e.states[p]
		rs.starved += (step - 1) - rs.starveStamp
		rs.starveStamp = step - 1
	}
}

// scanMail admits every rank with a nonempty window. Run after every
// delivery boundary: it is what wakes sleepers for landed traffic —
// neighbor sends and chaos-delayed releases look the same here. A skipped
// rank never drains its window (the next boundary would discard it), so a
// nonempty window forces execution.
func (e *stepEngine) scanMail(step int) {
	// LiveInboxes is exactly the set of nonempty windows, so the scan is
	// O(receivers), not O(P).
	for _, p := range e.w.LiveInboxes() {
		e.admit(int(p), step, true)
	}
}

// beginStep opens a step: fire calendar wakeups due now, wake ranks with
// landed mail, and record the phase-1 active count. Stale calendar entries
// (the rank was woken by mail meanwhile and its clock reset) wake a clean
// rank, which is a bit-identical no-op.
func (e *stepEngine) beginStep(step int) {
	if due, ok := e.calendar[step]; ok {
		delete(e.calendar, step)
		for _, p := range due {
			e.admit(int(p), step, false)
		}
	}
	e.scanMail(step)
	e.syncList()
	e.hist = append(e.hist, len(e.list))
}

// syncList merges the ranks admitted since its last call into the member
// list: it sorts them and merges the two ascending lists backward, in place,
// in O(members + admitted · log admitted) — never O(P), however often a
// step admits.
func (e *stepEngine) syncList() {
	a := e.admitted
	if len(a) == 0 {
		return
	}
	slices.Sort(a)
	i, j := len(e.list)-1, len(a)-1
	e.list = e.list[:len(e.list)+len(a)]
	for k := len(e.list) - 1; j >= 0; k-- {
		if i >= 0 && e.list[i] > a[j] {
			e.list[k] = e.list[i]
			i--
		} else {
			e.list[k] = a[j]
			j--
		}
	}
	e.admitted = a[:0]
}

// resetRelaxed clears the per-step relax flags. Only current members can
// carry a stale flag: a rank is put to sleep only at the end of a step it
// did not relax in, and nothing sets the flag while it sleeps — so the
// O(P) pointer walk shrinks to the member list.
func (e *stepEngine) resetRelaxed() {
	e.syncList()
	for _, p := range e.list {
		e.states[p].relaxed = false
	}
}

// tally accumulates the step's relaxed-rank count and row total over the
// member set, refreshing each member's local-norm slot on the way (norms
// feeds the global norm, see runState.norms). Sleeping ranks
// need no visit on either count: they cannot hold a relax flag, and
// quiescence means an unchanged norm, so their slot is already current.
func (e *stepEngine) tally(norms []float64) (relaxedRanks, rows int) {
	e.syncList()
	for _, p := range e.list {
		rs := e.states[p]
		norms[p] = rs.norm
		if rs.relaxed {
			relaxedRanks++
			rows += len(rs.r)
		}
	}
	return
}

// runStep executes the step's access epochs. Pinned, every rank runs every
// epoch (RunPhase is RunPhaseActive over the world's list of all ranks).
// Otherwise each epoch runs over the active set (idle is the
// per-rank flop charge a skipped rank would have made: the decision scan in
// the first phase, nothing after), then windows are rescanned: membership
// grows monotonically within a step, so a rank reached by phase-k traffic
// runs every later phase exactly as if no rank ever slept.
func (e *stepEngine) runStep(step int, phases []func(rank int)) {
	if e.pinned {
		for _, f := range phases {
			e.w.RunPhase(f)
		}
		return
	}
	e.beginStep(step)
	idle := e.idleDeg
	for _, f := range phases {
		e.syncList()
		e.w.RunPhaseActive(e.inSet, e.list, idle, f)
		e.scanMail(step)
		idle = nil
	}
}

// endStep closes a step. Starvation-clocked methods apply the per-step
// starvation rule to every executed rank (sleepers accumulate lazily via
// the stamp). Then, unless pinned, executed ranks that changed state stay
// active and quiescent ones go to sleep, with the sleeper's refresh wakeup
// scheduled at the first step whose phase 2 would fire it.
func (e *stepEngine) endStep(step int) {
	e.syncList() // the last phase's mail scan may have admitted ranks
	if e.starve {
		for _, p := range e.list {
			rs := e.states[p]
			if rs.relaxed || rs.gotMsg {
				rs.starved = 0
			} else {
				rs.starved++
			}
			rs.gotMsg = false
			rs.starveStamp = step
		}
	}
	if e.pinned {
		return
	}
	kept := e.list[:0]
	for _, p32 := range e.list {
		p := int(p32)
		rs := e.states[p]
		if rs.relaxed || e.sawMail[p] {
			e.sawMail[p] = false
			kept = append(kept, p32) // in-place compaction keeps order
			continue                 // state changed: next step's decision must be evaluated
		}
		e.inSet[p] = false
		if e.starve {
			// Refresh fires in phase 2 of step u once starved at the end of
			// u-1 reaches refreshAfter; asleep, starved grows by one per
			// step from its stamped value.
			due := step + e.refreshAfter - rs.starved + 1
			if due <= step {
				due = step + 1
			}
			e.calendar[due] = append(e.calendar[due], int32(p))
		}
	}
	e.list = kept
}

// traceStep mirrors the step's active-set occupancy onto the trace's
// control track (skip rate = sleeping fraction). Pinned runs emit nothing:
// there is no occupancy to observe.
func (e *stepEngine) traceStep(step int) {
	if e.pinned {
		return
	}
	tr := e.w.Tracer()
	if tr == nil {
		return
	}
	// endStep has already put this step's sleepers to bed; the step's
	// phase-1 occupancy is the hist entry beginStep recorded.
	p, executing := len(e.states), e.hist[len(e.hist)-1]
	tr.Emit(obs.Event{
		Kind:  obs.KindActiveSet,
		Rank:  obs.ControlRank,
		Step:  int32(step),
		A:     int32(executing),
		B:     int32(p - executing),
		V1:    float64(p-executing) / float64(p),
		Ts:    e.w.Now(),
		Phase: e.w.PhaseIndex(),
	})
}
