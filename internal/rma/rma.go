// Package rma simulates the one-sided (remote memory access) communication
// model the paper's implementation uses (MPI-3 MPI_Win_allocate / MPI_Put
// with post-start-complete-wait access epochs) inside a single process.
//
// The paper's algorithms are phase-synchronous within a parallel step:
// every rank writes to its neighbors' windows, then waits for its own
// window ("Wait for neighbors to finish writing to Wp") before reading.
// The simulator reproduces exactly this epoch structure: a phase runs every
// rank's local code, during which ranks Put messages toward target windows;
// at the end of the phase all puts are delivered atomically, becoming
// readable in the next phase. Delivery order is deterministic (ascending
// origin rank) and results are bit-identical for every execution width.
//
// One engine executes a phase: the ranks are cut into contiguous chunks and
// the chunks run as one region on internal/parallel's pool — the shared
// pool (parallel.Default, as wide as GOMAXPROCS) when Parallel is set, the
// nil pool otherwise, whose Run is the same chunks inline on the calling
// goroutine. The sequential engine is therefore width 1 of the same lines,
// and this package starts no goroutine. Because a rank's phase function
// touches only that rank's counters and its chunk's staging array, and
// messages become visible only at the phase boundary, every width executes
// the same state machine (asserted by the engine-equivalence tests). A
// phase function must not block: it occupies a slot of the pool the
// numerical kernels share (DESIGN.md §9).
//
// One boundary closes a phase (deliver). It walks the messages staged, the
// ranks that ran and the windows that were written, never all P, and is
// allocation-free at steady state. Messages live in two kinds of flat array:
// Put appends to one staging array per execution chunk, and deliver moves
// them into one window array by a counting sort — count the landings per
// target, take a prefix over the written windows, scatter — so a window is a
// range of that array, as an MPI window is a range of memory allocated once.
// The arrays keep their capacity across phases, and payloads are expected to
// be pointers to caller-owned buffers (boxing a pointer into the Payload
// interface does not allocate). A Message is 32 bytes — ranks and sizes as
// int32, which Put and NewWorld guard.
//
// A seeded fault-injection plan (faults.go) can perturb delivery — delayed,
// duplicated, and reordered landings, straggler cost multipliers, and rank
// pauses — deterministically and identically at every width, for the
// robustness studies. A plan or a tracer adds passes and emit sites to that
// boundary; neither selects another one.
//
// The runtime also does the bookkeeping the paper reports: messages and
// bytes per rank split by tag (solve updates vs explicit residual updates,
// Table 3), and a BSP α-β-γ cost model that converts per-phase maxima of
// (compute + message costs) into simulated wall-clock seconds (DESIGN.md
// §2 explains why this reproduces the paper's wall-clock *shape*).
package rma

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"southwell/internal/obs"
	"southwell/internal/parallel"
)

// ErrClosed is the panic value of Put and RunPhase on a closed World:
// using a world after Close is a programming error, and fails loudly.
var ErrClosed = errors.New("rma: world used after Close")

// Sched and its two values are accepted and ignored since PR 19, which
// removed the neighborhood-epoch scheduler (DESIGN.md §13): every phase
// ends in the one global barrier. They exist only because benchmarks/e2e
// names them, and go with its ds_nbr_mc variant in the next benchmark PR.
type Sched uint8

const (
	SchedBarrier Sched = iota
	SchedNeighbor
)

// Tag classifies a message for the communication-cost breakdown.
type Tag uint8

const (
	// TagSolve marks messages carrying relaxation updates after a local
	// subdomain solve ("Solve comm" in Table 3).
	TagSolve Tag = iota
	// TagResidual marks explicit residual-norm update messages
	// ("Res comm" in Table 3).
	TagResidual
	numTags
)

// CostModel is the α-β-γ BSP time model: a message costs Alpha + Beta*bytes
// to inject, and local computation costs Gamma per flop. The simulated time
// of a phase is the maximum over ranks; phases accumulate.
type CostModel struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
	Gamma float64 // seconds per flop
}

// DefaultCostModel is loosely calibrated to a Cori-class machine: ~1.5 µs
// message latency, ~0.1 ns/byte (≈10 GB/s injection), ~0.25 ns/flop for
// sparse kernels (~4 Gflop/s sustained).
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 1.5e-6, Beta: 1e-10, Gamma: 2.5e-10}
}

// Message is one Put: written once into its chunk's staging array by Put,
// and copied once into the window array at the boundary.
type Message struct {
	Payload any
	From    int32
	To      int32
	Bytes   int32
	Tag     Tag
	// Dup marks a duplicate landing injected by the fault layer: the same
	// window write observed twice in one batch. Receivers treating window
	// writes as idempotent skip these.
	Dup bool
	// owned marks a payload the runtime has already deep-copied (a delayed
	// delivery, or a window retained across a pause), so a multi-phase pause
	// copies it once.
	owned bool
}

// World is a set of P simulated ranks with windows and counters.
type World struct {
	P        int
	Model    CostModel
	Parallel bool // run phases on parallel.Default() instead of inline

	// stage holds the puts issued this phase, one array per execution chunk
	// (Put appends to the array of the chunk running the origin). Chunks
	// are contiguous ascending rank ranges walked in ascending order, so the
	// arrays read in chunk order list the puts by ascending origin, each
	// origin's in call order, at every width.
	stage []stageBuf
	// window holds every readable window: rank p's is window[inbox[p].lo :
	// inbox[p].hi], and a rank whose window is empty has lo = hi = 0. back is
	// the other array of the pair: deliver scatters the next windows into it
	// and the two swap, so a window retained across a pause is copied forward
	// and nothing else is. Slots past the windows are spent: they keep their
	// messages until a later boundary overwrites them or Reset zeroes them.
	window, back []Message
	inbox        []inbound

	flops []float64 // per-rank compute charged this phase
	msgs  []int64   // per-rank messages sent this phase
	bytes []int64   // per-rank bytes sent this phase

	// liveInbox lists the ranks whose window is currently nonempty, in the
	// order they first received a landing, which is also the order of their
	// windows in the window array. land maintains it (append on the
	// empty→nonempty transition) and deliver consumes it, so the boundary
	// expires and costs only the windows that were actually written instead
	// of scanning all P.
	liveInbox []int32
	all       []int32 // 0..P-1: the member list of a phase every rank runs

	// idleMax cache: max over an idle vector, keyed by slice identity —
	// one O(P) scan per distinct vector per run instead of per phase.
	idleMaxVec []float64
	idleMaxVal float64

	simTime    float64
	totalMsgs  [numTags]int64
	totalBytes [numTags]int64
	phases     int64
	delivered  int64

	// trace, when non-nil, receives structured events (obs package). All
	// emits are guarded by a nil check so the disabled path is free; an
	// event for rank p is emitted from p's phase function or from the
	// driver between phases, matching the obs.Recorder concurrency contract.
	trace *obs.Recorder

	// chaos, when non-nil, is the installed fault-injection state (see
	// faults.go). All chaos decisions are made in deliver on the calling
	// goroutine, keeping every width bit-identical.
	chaos *chaosState

	// The phase in flight (active.go): task is the one region descriptor,
	// bound once to runChunk; the rest are the phase's arguments, set by
	// RunPhaseActive before the region opens, read by every chunk and by
	// the boundary, and dropped when it returns.
	task    parallel.Task
	chunks  int
	f       func(rank int)
	active  []bool    // nil: every rank runs f
	actList []int32   // the ranks that run f, ascending
	idle    []float64 // per-rank flop charge for skipped, unpaused ranks

	closed bool
}

// NewWorld creates a world of p ranks (stored as int32) with the given cost model.
func NewWorld(p int, model CostModel) *World {
	if p > math.MaxInt32 {
		panic(fmt.Sprintf("rma: NewWorld: %d ranks exceed the int32 rank range", p))
	}
	w := &World{
		P:         p,
		Model:     model,
		stage:     make([]stageBuf, 1),
		inbox:     make([]inbound, p),
		flops:     make([]float64, p),
		msgs:      make([]int64, p),
		bytes:     make([]int64, p),
		liveInbox: make([]int32, 0, p),
		all:       make([]int32, p),
	}
	for r := range w.all {
		w.all[r] = int32(r)
	}
	w.task.F = w.runChunk
	return w
}

// stageBuf is one chunk's staging array, padded to a cache line of its own:
// the chunks of a phase append to theirs concurrently.
type stageBuf struct {
	msgs []Message
	_    [40]byte // the 24-byte slice header padded to 64
}

// inbound is a rank's side of the boundary: its window's range of the
// window array, and the bytes landed in it at the boundary in flight (zeroed
// by fold). Deliver's first pass counts landings in hi.
type inbound struct {
	lo, hi    int32
	recvBytes int64
}

// slotsPerRank sizes a flat message array's first allocation: room for that
// many messages per rank (per rank of its chunk, for a staging array). A run
// whose phases send no more never grows one, so a repeat solve allocates
// nothing here whichever method ran on the world before.
const slotsPerRank = 8

// grow returns buf, contents kept, with room for n more messages: a first
// allocation holds at least floor, and later ones grow as append does.
func grow(buf []Message, n, floor int) []Message {
	if cap(buf) == 0 && n > 0 {
		n = max(n, floor)
	}
	return slices.Grow(buf, n)
}

// zeroed returns buf emptied, every slot of its capacity zeroed.
func zeroed(buf []Message) []Message {
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:0]
}

// Put stages a one-sided write of payload into the window of rank `to`. It
// becomes visible in to's inbox at the start of the next phase. Put must be
// called from rank `from`'s phase function: it appends to the staging array
// of the chunk running `from`, which no other goroutine touches. Payloads
// should be pointers to caller-owned buffers: boxing a pointer does not
// allocate, and the runtime never copies payload contents. It may keep a
// reference in a spent slot of its flat arrays until a later boundary
// overwrites the slot; Reset drops them all.
func (w *World) Put(from, to int, tag Tag, bytes int, payload any) {
	if w.closed {
		panic(ErrClosed)
	}
	if from < 0 || from >= w.P || to < 0 || to >= w.P {
		panic(fmt.Sprintf("rma: Put %d -> %d: rank out of range (P=%d)", from, to, w.P))
	}
	if bytes < 0 || bytes > math.MaxInt32 {
		panic(fmt.Sprintf("rma: Put size %d bytes out of range (0..%d)", bytes, math.MaxInt32))
	}
	st := &w.stage[w.chunkOf(from)]
	if len(st.msgs) == cap(st.msgs) {
		st.msgs = grow(st.msgs, 1, slotsPerRank*w.P/max(1, w.chunks))
	}
	st.msgs = append(st.msgs, Message{Payload: payload, From: int32(from), To: int32(to), Bytes: int32(bytes), Tag: tag}) // staging arrays keep their capacity across phases (deliver truncates them)
	w.msgs[from]++
	w.bytes[from] += int64(bytes)
	if w.trace != nil {
		w.trace.Emit(obs.Event{
			Kind:  obs.KindPut,
			Rank:  int32(from),
			A:     int32(to),
			Tag:   uint8(tag),
			I1:    int64(bytes),
			Ts:    w.simTime,
			Phase: w.phases,
		})
	}
}

// Charge records flops of local computation for rank in the current phase.
func (w *World) Charge(rank int, flops float64) {
	w.flops[rank] += flops
}

// Inbox returns the messages delivered to rank at the last phase boundary.
// The slice is valid until the next phase boundary.
func (w *World) Inbox(rank int) []Message {
	in := &w.inbox[rank]
	return w.window[in.lo:in.hi:in.hi]
}

// LiveInboxes returns the ranks whose inbox is currently nonempty, in
// first-landing order, so boundary scans over P ranks can instead walk the
// handful of windows that were actually written. The slice is valid until
// the next phase boundary and must not be mutated.
func (w *World) LiveInboxes() []int32 {
	return w.liveInbox
}

// SetTracer installs (or, with nil, removes) a structured-event recorder.
// Install before the first phase. Tracing changes no observable runtime
// behavior: results, message counts, and SimTime are bit-identical with it
// on or off.
func (w *World) SetTracer(t *obs.Recorder) { w.trace = t }

// Tracer returns the installed tracer (nil when tracing is off), so layers
// above the runtime (dmem) can emit algorithm-level events on the same
// clock.
func (w *World) Tracer() *obs.Recorder { return w.trace }

// Now returns the simulated clock: cumulative α-β-γ seconds since the
// world was created or last Reset. It only moves forward in between, which
// is what makes it a valid trace timestamp.
func (w *World) Now() float64 { return w.simTime }

// PhaseIndex returns the number of completed phases since the world was
// created or last Reset.
func (w *World) PhaseIndex() int64 { return w.phases }

// RunPhase executes one access epoch: f runs for every rank, then all
// staged puts are delivered and the phase's simulated time is accounted.
// It is RunPhaseActive over the world's identity list (active.go), so the
// walk, the boundary, the width (w.Parallel) and the contract are the same:
// f(p) may only touch rank p's state, and cross-rank data moves exclusively
// through Put at the phase boundary.
func (w *World) RunPhase(f func(rank int)) {
	w.RunPhaseActive(nil, nil, nil, f)
}

// Close marks the world finished: Put, RunPhase and RunPhaseActive panic
// with ErrClosed afterwards. It is idempotent and releases nothing — a
// world holds no goroutine — and, like Reset, must not race with a phase.
func (w *World) Close() { w.closed = true }

// Reset returns the world to what NewWorld(w.P, model) hands out while
// keeping every buffer's capacity, so one world serves many runs. Clock and
// counters are zeroed (fault schedules are keyed on the phase index). The
// tracer and fault plan are dropped, and every message still in a window or
// staging slot is zeroed, so the world retains nothing of the finished run.
// A closed world is reopened. Must not race with a phase.
func (w *World) Reset(model CostModel) {
	w.Model, w.Parallel = model, false
	for b := range w.stage {
		w.stage[b].msgs = zeroed(w.stage[b].msgs)
	}
	w.window, w.back = zeroed(w.window), zeroed(w.back)
	clear(w.inbox)
	clear(w.flops)
	clear(w.msgs)
	clear(w.bytes)
	w.liveInbox = w.liveInbox[:0]
	w.idleMaxVec = nil
	w.simTime, w.phases, w.delivered = 0, 0, 0
	w.totalMsgs, w.totalBytes = [numTags]int64{}, [numTags]int64{}
	w.trace, w.chaos = nil, nil
	w.closed = false
}

// deliver closes the phase in flight — the one phase boundary. It expires
// the windows read in this phase, moves the staged puts into windows
// (ascending origin rank: the staging arrays, read in chunk order, list
// them so) and accumulates the phase's simulated time: the BSP h-relation
// cost, per rank compute plus message costs counting both injections and
// landings (a window write occupies the target's NIC even though the target
// CPU is not involved), maximized over ranks.
//
// The move is a counting sort in two flat passes over the staging arrays.
// The first decides and counts every landing, in landing order: it charges
// the target and appends it to liveInbox on its first landing. A prefix over
// liveInbox then lays the windows out in back, and the second pass scatters
// the landings into them in the same order, so each window holds its
// landings in landing order. The two window arrays then swap. Nothing is
// zeroed: spent slots are overwritten by later boundaries (or zeroed by
// Reset), which measured cheaper than clearing them at every boundary.
//
// Every loop runs over the messages and the ranks the phase touched — the
// member list and the written windows (liveInbox) — never over all P. What
// else runs is decided by what the world holds. A fault plan overlays the
// same passes (faults.go): a paused rank's window is retained and carried
// ahead of its new landings, released delayed messages are landings ahead of
// the staged ones, each staged message is held back, landed or landed twice
// in the first pass (a duplicate is a landing like any other), batches are
// reordered in place, and the cost pass visits every rank because each has
// its own multiplier. A tracer adds emit sites on the same walks, plus a
// second cost walk so a rank's cost row carries the closed phase's clock.
// All of it runs here, on the calling goroutine, so every width sees the
// same schedule.
func (w *World) deliver() {
	ch, landedBefore := w.chaos, w.delivered

	// Expire the windows read in this phase. A retained one keeps its place
	// at the front of liveInbox, and its count opens at its length (lo still
	// marks where it lies in window).
	kept, carried := 0, 0
	for _, p := range w.liveInbox {
		in := &w.inbox[p]
		if ch != nil && ch.retain(int(p), w.window[in.lo:in.hi]) {
			carried += int(in.hi - in.lo)
			in.hi -= in.lo
			w.liveInbox[kept] = p
			kept++
			continue
		}
		in.lo, in.hi = 0, 0
	}
	w.liveInbox = w.liveInbox[:kept]

	// Pass 1: count. Under a plan a message held back leaves its staging
	// array here, so the second pass sees exactly the landings counted.
	var due []heldMsg
	if ch != nil {
		due = w.openFaultBoundary()
	}
	for b := range w.stage {
		st := w.stage[b].msgs
		n := 0
		for i := range st {
			m := &st[i]
			w.totalMsgs[m.Tag]++
			w.totalBytes[m.Tag] += int64(m.Bytes)
			if ch == nil {
				w.land(m)
			} else if w.landFaulty(m) {
				st[n] = *m
				n++
			}
		}
		if ch != nil {
			w.stage[b].msgs = st[:n]
		}
	}

	// Prefix: the windows in liveInbox order, each retained one copied
	// ahead of its new landings.
	total := carried + int(w.delivered-landedBefore)
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("rma: %d landings at one boundary exceed the int32 window range", total))
	}
	w.back = grow(w.back, total, slotsPerRank*w.P)
	next, at := w.back[:total], int32(0)
	for i, p := range w.liveInbox {
		in := &w.inbox[p]
		n, fill := in.hi, at
		if i < kept {
			r := ch.retained[p]
			fill += int32(copy(next[at:at+r], w.window[in.lo:in.lo+r]))
		}
		in.lo, in.hi = at, fill
		at += n
	}

	// Pass 2: scatter, in pass 1's landing order.
	if w.trace != nil {
		w.traceLandings(due)
	}
	for i := range due {
		w.scatter(next, &due[i].m)
	}
	for b := range w.stage {
		st := w.stage[b].msgs
		for i := range st {
			w.scatter(next, &st[i])
		}
		w.stage[b].msgs = st[:0]
	}
	w.window, w.back = next, w.window[:0]
	if ch != nil && ch.plan.ReorderProb > 0 {
		w.reorderBatches()
	}

	maxCost := w.phaseCost(w.trace == nil)
	w.simTime += maxCost
	if w.trace != nil {
		w.phaseCost(true)
		w.trace.Emit(obs.Event{
			Kind:  obs.KindPhase,
			Rank:  obs.ControlRank,
			Ts:    w.simTime,
			Dur:   maxCost,
			I1:    w.delivered - landedBefore,
			Phase: w.phases,
		})
	}
	w.phases++
}

// phaseCost returns the maximum over ranks of the α-β-γ cost of the phase
// in flight; with settle it also closes every touched rank's books (fold).
// A rank that ran, or whose window was written, carries the full formula. A
// skipped rank's cost is Gamma·idle[p] with zero message terms, so a single
// Gamma·max(idle) term stands for all of them bit-for-bit: max(c·a, c·b) =
// c·max(a, b) for the non-negative finite costs the model produces, and the
// max may be taken over ALL ranks (cached per idle vector, see idleMax)
// because idle[p] lower-bounds every executing rank's flop charge
// (RunPhaseActive contract) and IEEE multiply-by- and add-nonnegative are
// monotone, so a touched rank's full cost dominates its own Gamma·idle[p].
// Per-rank straggler multipliers defeat that fold, so under a fault plan
// the pass visits every rank, charging a skipped unpaused one idle[p]
// arithmetically (dense stepping would have charged 0 + idle[p]).
func (w *World) phaseCost(settle bool) float64 {
	active, idle, maxCost := w.active, w.idle, 0.0
	if ch := w.chaos; ch != nil {
		for p := range w.flops {
			fl := w.flops[p]
			if idle != nil && !active[p] && !ch.pausedNow[p] {
				fl = idle[p]
			}
			maxCost = w.fold(maxCost, p, fl, ch.slowAt(p, w.phases), settle)
		}
		return maxCost
	}
	if idle != nil {
		maxCost = w.Model.Gamma * w.idleMax(idle)
	}
	for _, p := range w.actList {
		maxCost = w.fold(maxCost, int(p), w.flops[p], 1, settle)
	}
	for _, p := range w.liveInbox {
		if active == nil || active[p] {
			continue // a member: folded above
		}
		fl := 0.0 // a skipped receiver: its landings on top of the idle charge
		if idle != nil {
			fl = idle[p]
		}
		maxCost = w.fold(maxCost, int(p), fl, 1, settle)
	}
	return maxCost
}

// fold folds rank p's α-β-γ cost for the phase in flight — fl flops of
// compute plus its injections and landings, times mult — into the running
// maximum. With settle it also zeroes the rank's per-phase counters, after
// logging its cost row if a tracer is installed and the rank ran or was
// written to: the γ/α/β terms separately, so the rank whose total tracks
// the phase maximum is the SimTime winner.
func (w *World) fold(maxCost float64, p int, fl, mult float64, settle bool) float64 {
	in := &w.inbox[p]
	recv := in.hi - in.lo // the window, less what it carried over from the last boundary
	if ch := w.chaos; ch != nil {
		recv -= ch.retained[p]
	}
	h := float64(w.msgs[p] + int64(recv))
	hb := float64(w.bytes[p] + in.recvBytes)
	if cost := (w.Model.Gamma*fl + w.Model.Alpha*h + w.Model.Beta*hb) * mult; cost > maxCost {
		maxCost = cost
	}
	if !settle {
		return maxCost
	}
	if w.trace != nil && (w.flops[p] != 0 || w.msgs[p] != 0 || recv != 0) {
		fc, mc, bc := w.Model.Gamma*fl*mult, w.Model.Alpha*h*mult, w.Model.Beta*hb*mult
		w.trace.Emit(obs.Event{
			Kind:  obs.KindRankCost,
			Rank:  int32(p),
			Ts:    w.simTime,
			Dur:   fc + mc + bc,
			V1:    fc,
			V2:    mc,
			V3:    bc,
			A:     int32(w.msgs[p]),
			B:     recv,
			I1:    w.bytes[p],
			I2:    in.recvBytes,
			Phase: w.phases,
		})
	}
	w.flops[p], w.msgs[p], w.bytes[p], in.recvBytes = 0, 0, 0, 0
	return maxCost
}

// idleMax returns max(idle), cached by slice identity: the engine reuses
// one immutable idle vector per phase kind for a whole run, so the O(P)
// scan happens once per run rather than once per phase. Callers must not
// mutate a vector between phases (RunPhaseActive contract).
func (w *World) idleMax(idle []float64) float64 {
	if len(idle) == 0 {
		return 0
	}
	if w.idleMaxVec != nil && &w.idleMaxVec[0] == &idle[0] {
		return w.idleMaxVal
	}
	m := 0.0
	for _, v := range idle {
		if v > m {
			m = v
		}
	}
	w.idleMaxVec, w.idleMaxVal = idle, m
	return m
}

// emitFault records a fault-layer action on the control track. Fault
// decisions are made on the driver goroutine in deliver, so these emits
// are always race-free.
func (w *World) emitFault(flag uint8, from, to int) {
	if w.trace == nil {
		return
	}
	w.trace.Emit(obs.Event{
		Kind:  obs.KindFault,
		Rank:  obs.ControlRank,
		Flag:  flag,
		A:     int32(from),
		B:     int32(to),
		Ts:    w.simTime,
		Phase: w.phases,
	})
}

// land counts one landing in its target window — deliver's first pass — and
// charges it (the write occupies the target's NIC even though its CPU is not
// involved).
func (w *World) land(m *Message) {
	in := &w.inbox[m.To]
	if in.hi == 0 {
		w.liveInbox = append(w.liveInbox, m.To) // preallocated to cap P in NewWorld; entries are distinct ranks, so len never exceeds P
	}
	in.hi++
	in.recvBytes += int64(m.Bytes)
	w.delivered++
}

// scatter writes one counted landing into its window in next — deliver's
// second pass. A message the plan duplicated (landFaulty marks it Dup) lands
// twice: the original, then the flagged copy.
func (w *World) scatter(next []Message, m *Message) {
	in := &w.inbox[m.To]
	next[in.hi] = *m
	in.hi++
	if m.Dup {
		next[in.hi-1].Dup = false
		next[in.hi] = *m
		in.hi++
	}
}

// traceLandings logs the boundary's landings — the released delayed
// messages, then the staged ones — in landing order, the order both passes
// walk, a duplicate right after its original.
func (w *World) traceLandings(due []heldMsg) {
	emit := func(m Message) {
		e := obs.Event{
			Kind:  obs.KindDeliver,
			Rank:  m.To,
			A:     m.From,
			Tag:   uint8(m.Tag),
			I1:    int64(m.Bytes),
			Ts:    w.simTime,
			Phase: w.phases,
		}
		if m.Dup {
			e.Flag = obs.FlagDup
		}
		w.trace.Emit(e)
	}
	for _, h := range due {
		emit(h.m)
	}
	for b := range w.stage {
		for _, m := range w.stage[b].msgs {
			if m.Dup {
				orig := m
				orig.Dup = false
				emit(orig)
			}
			emit(m)
		}
	}
}

// Stats is the cumulative communication record of a world.
type Stats struct {
	SimTime    float64
	Phases     int64
	SolveMsgs  int64
	ResMsgs    int64
	SolveBytes int64
	ResBytes   int64
	// Delivered counts landings (including fault-injected duplicates);
	// without faults it equals TotalMsgs once all messages have arrived.
	Delivered int64
	// Fault-injection counters, all zero without an installed plan.
	DelayedMsgs      int64 // messages held back by the fault layer
	DupMsgs          int64 // duplicate landings injected
	ReorderedBatches int64 // delivery batches shuffled
	PausedRankPhases int64 // rank-phases spent descheduled
}

// TotalMsgs returns all messages sent so far.
func (s Stats) TotalMsgs() int64 { return s.SolveMsgs + s.ResMsgs }

// CommCost is the paper's §4.3 metric: total messages divided by ranks.
// A non-positive rank count yields 0 rather than NaN/±Inf, so a malformed
// caller cannot poison a table cell silently.
func (s Stats) CommCost(p int) float64 {
	if p <= 0 {
		return 0
	}
	return float64(s.TotalMsgs()) / float64(p)
}

// Stats returns a snapshot of the counters since world creation or the
// last Reset.
func (w *World) Stats() Stats {
	s := Stats{
		SimTime:    w.simTime,
		Phases:     w.phases,
		SolveMsgs:  w.totalMsgs[TagSolve],
		ResMsgs:    w.totalMsgs[TagResidual],
		SolveBytes: w.totalBytes[TagSolve],
		ResBytes:   w.totalBytes[TagResidual],
		Delivered:  w.delivered,
	}
	if ch := w.chaos; ch != nil {
		s.DelayedMsgs = ch.delayed
		s.DupMsgs = ch.duped
		s.ReorderedBatches = ch.reordered
		s.PausedRankPhases = ch.paused
	}
	return s
}
