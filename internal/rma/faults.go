package rma

import "southwell/internal/obs"

// Fault injection ("chaos") for the simulated one-sided runtime.
//
// A FaultPlan installed on a World perturbs delivery the way a real
// interconnect and OS do: individual Puts are held back for extra phases,
// land twice, or arrive out of origin order; designated straggler ranks pay
// a multiplier on their compute and message costs; and ranks can be paused
// for a window of phases (descheduled — their phase function simply does
// not run, while one-sided writes to their windows keep landing and stay
// readable until they next execute an epoch, exactly as MPI_Put semantics
// allow).
//
// Every random decision is drawn from a plan-owned splitmix64 PRNG inside
// deliver(), which runs on the calling goroutine after the phase barrier —
// so a chaos run is bit-reproducible from FaultPlan.Seed and identical at
// every execution width (asserted by the chaos engine-equivalence tests).
// No math/rand global state is touched.

// FaultPlan describes deterministic fault injection for a World. The zero
// value injects nothing. Install it with World.InstallFaults before the
// first phase; the World copies the plan, so one plan value can seed many
// runs (each starts from Seed again).
type FaultPlan struct {
	// Seed seeds the plan's private PRNG. Two worlds given the same plan
	// see the same fault schedule.
	Seed int64
	// DelayProb is the per-message probability that a Put's delivery is
	// held back by 1..DelayMax extra phase boundaries.
	DelayProb float64
	// DelayMax bounds the delay drawn for a delayed message (phases).
	// Values < 1 are treated as 1.
	DelayMax int
	// DupProb is the per-message probability that a delivered Put lands a
	// second time in the same delivery batch (a duplicated window write;
	// the copy is flagged Message.Dup).
	DupProb float64
	// ReorderProb is the per-rank, per-boundary probability that the batch
	// of messages landing in that rank's window this boundary is shuffled
	// instead of arriving in origin-rank order.
	ReorderProb float64
	// Stragglers multiplies the cost-model compute and message terms of
	// the given ranks (simulated time only; results are unaffected).
	Stragglers map[int]float64
	// StragglerPhaseProb is the per-(rank, phase) probability of a
	// transient cost spike (OS noise, a page fault storm): the rank's cost
	// multiplier for that phase alone is scaled by phaseSpikeMult. Spikes
	// are decided by a counter-indexed hash of (Seed, rank, phase) — no
	// PRNG stream is consumed, so the schedule is identical at every
	// width and independent of delivery order.
	StragglerPhaseProb float64
	// Pauses deschedules ranks for windows of phases.
	Pauses []Pause
}

// Pause deschedules Rank for phases [From, To): its phase function is not
// invoked, while messages addressed to it accumulate in its window.
type Pause struct {
	Rank int
	From int
	To   int
}

// DelayPlan is the delay-only plan used by the robustness studies: each
// message is independently held back with probability prob by 1..maxDelay
// phases; nothing is duplicated, reordered, stalled, or paused.
func DelayPlan(seed int64, prob float64, maxDelay int) *FaultPlan {
	return &FaultPlan{Seed: seed, DelayProb: prob, DelayMax: maxDelay}
}

// Cloner lets the fault layer deep-copy a payload it must hold past the
// phase in which it was staged (delayed deliveries) or past the phase in
// which it was readable (windows retained across a pause): senders reuse
// their payload buffers one phase after a normal delivery, so a held
// message would otherwise alias storage that has since been rewritten.
// Payloads that do not implement Cloner are held by reference.
type Cloner interface {
	CloneMessage() any
}

// own replaces m's payload with a private deep copy, once.
func (m *Message) own() {
	if m.owned {
		return
	}
	if c, ok := m.Payload.(Cloner); ok {
		m.Payload = c.CloneMessage()
		m.owned = true
	}
}

// prng is splitmix64: tiny, fast, and stable across platforms, so chaos
// schedules never depend on math/rand internals or global seeding.
type prng struct {
	s uint64
}

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *prng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0, n).
func (r *prng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// heldMsg is a delayed message: released at the delivery boundary whose
// phase index reaches due.
type heldMsg struct {
	due int64
	m   Message
}

// chaosState is a World's private copy of an installed plan plus its
// run state. All mutation happens in RunPhase/deliver on the calling
// goroutine; phase chunks only read pausedNow.
type chaosState struct {
	plan FaultPlan
	rng  prng

	held       []heldMsg // delayed messages, staging order
	slow       []float64 // per-rank cost multiplier (1 = nominal)
	pausedNow  []bool    // per rank: paused during the phase just run
	anyPause   bool      // plan has at least one pause window
	lastPause  int64     // phase index at which the last pause window ends
	retained   []int32   // per rank: window length carried across this boundary (0 unless paused), where its new batch starts
	dueScratch []heldMsg // releaseDue scratch, reused across boundaries

	delayed   int64 // messages held back
	duped     int64 // duplicate landings injected
	reordered int64 // delivery batches shuffled
	paused    int64 // rank-phases spent paused
}

// InstallFaults installs (a copy of) plan on the world, replacing any
// previous plan and rewinding the fault PRNG to plan.Seed. A nil plan
// removes fault injection. It must be called before the first phase.
func (w *World) InstallFaults(plan *FaultPlan) {
	if plan == nil {
		w.chaos = nil
		return
	}
	ch := &chaosState{
		plan:      *plan,
		rng:       prng{s: uint64(plan.Seed)},
		slow:      make([]float64, w.P),
		pausedNow: make([]bool, w.P),
		retained:  make([]int32, w.P),
	}
	if ch.plan.DelayMax < 1 {
		ch.plan.DelayMax = 1
	}
	for p := range ch.slow {
		ch.slow[p] = 1
	}
	for p, f := range plan.Stragglers {
		if p >= 0 && p < w.P && f > 0 {
			ch.slow[p] = f
		}
	}
	for _, pw := range plan.Pauses {
		if pw.Rank < 0 || pw.Rank >= w.P || pw.To <= pw.From {
			continue
		}
		ch.anyPause = true
		if int64(pw.To) > ch.lastPause {
			ch.lastPause = int64(pw.To)
		}
	}
	w.chaos = ch
}

// InFlight returns the number of messages the fault layer is currently
// holding back (zero without an installed plan).
func (w *World) InFlight() int {
	if w.chaos == nil {
		return 0
	}
	return len(w.chaos.held)
}

// FaultsQuiescent reports that the fault layer can no longer change the
// course of the run on its own: no delayed message is in flight and no
// pause window is active or still ahead. Always true without an installed
// plan. Methods use it to distinguish "provably stuck" from "waiting on
// the network".
func (w *World) FaultsQuiescent() bool {
	ch := w.chaos
	if ch == nil {
		return true
	}
	return len(ch.held) == 0 && w.phases >= ch.lastPause
}

// phaseSpikeMult is the transient cost multiplier applied when a
// StragglerPhaseProb spike hits a (rank, phase).
const phaseSpikeMult = 8.0

// spikeHash maps (seed, rank, phase) to a uniform [0,1) float with a
// splitmix64 finalizer. Order-independent by construction: the same
// triple gives the same draw no matter which chunk asks, or when.
func spikeHash(seed int64, p int, phase int64) float64 {
	z := uint64(seed) ^ uint64(p)*0x9e3779b97f4a7c15 ^ uint64(phase)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// slowAt returns rank p's cost multiplier for the given phase: the
// constant Stragglers factor times any per-phase spike.
func (ch *chaosState) slowAt(p int, phase int64) float64 {
	m := ch.slow[p]
	if ch.plan.StragglerPhaseProb > 0 &&
		spikeHash(ch.plan.Seed, p, phase) < ch.plan.StragglerPhaseProb {
		m *= phaseSpikeMult
	}
	return m
}

// markPaused refreshes pausedNow for the phase about to run.
func (ch *chaosState) markPaused(phase int64) {
	if !ch.anyPause {
		return
	}
	clear(ch.pausedNow)
	for _, pw := range ch.plan.Pauses {
		if pw.Rank < 0 || pw.Rank >= len(ch.pausedNow) {
			continue
		}
		if phase >= int64(pw.From) && phase < int64(pw.To) {
			ch.pausedNow[pw.Rank] = true
		}
	}
}

// retain decides, as deliver expires rank p's window in, whether it is
// retained across this boundary, and records its length either way (0 when
// it expires). One-sided writes to a paused rank's window persist until the
// rank next runs an epoch and can actually read them. The window takes
// ownership of its payloads here, before any sender can start the phase in
// which it rewrites the buffers they point into.
func (ch *chaosState) retain(p int, in []Message) bool {
	if !ch.pausedNow[p] {
		ch.retained[p] = 0
		return false
	}
	for i := range in {
		in[i].own()
	}
	ch.retained[p] = int32(len(in))
	return true
}

// openFaultBoundary is the plan's share of a boundary ahead of the staged
// messages: count the rank-phases spent paused, and land the delayed
// messages whose boundary has come — they are the oldest traffic, in
// staging order. It returns them for the scatter pass.
func (w *World) openFaultBoundary() []heldMsg {
	ch := w.chaos
	if ch.anyPause {
		for p, paused := range ch.pausedNow {
			if paused {
				ch.paused++
				w.emitFault(obs.FlagFaultPaused, p, 0)
			}
		}
	}
	due := ch.releaseDue(w.phases)
	for i := range due {
		w.land(&due[i].m)
	}
	return due
}

// landFaulty decides the fate of one staged message at a delivery boundary:
// captured as delayed (it returns false: the message leaves staging), landed,
// or landed twice (m is marked Dup, which tells the scatter pass too).
func (w *World) landFaulty(m *Message) bool {
	ch := w.chaos
	if ch.plan.DelayProb > 0 && ch.rng.float() < ch.plan.DelayProb {
		k := 1 + ch.rng.intn(ch.plan.DelayMax)
		held := *m
		held.own()
		ch.held = append(ch.held, heldMsg{due: w.phases + int64(k), m: held})
		ch.delayed++
		w.emitFault(obs.FlagFaultDelayed, int(m.From), int(m.To))
		return false
	}
	w.land(m)
	if ch.plan.DupProb > 0 && ch.rng.float() < ch.plan.DupProb {
		ch.duped++
		m.Dup = true
		w.land(m)
		w.emitFault(obs.FlagFaultDuped, int(m.From), int(m.To))
	}
	return true
}

// reorderBatches shuffles, with the plan's probability, the batch each
// window received at this boundary: its range past the retained messages.
// Ascending rank over all P: the draws are one PRNG stream, so their order
// is part of the output.
func (w *World) reorderBatches() {
	ch := w.chaos
	for p, in := range w.inbox {
		batch := w.window[in.lo+ch.retained[p] : in.hi]
		if len(batch) < 2 || ch.rng.float() >= ch.plan.ReorderProb {
			continue
		}
		ch.reordered++
		w.emitFault(obs.FlagFaultReordered, p, p)
		for i := len(batch) - 1; i > 0; i-- {
			j := ch.rng.intn(i + 1)
			batch[i], batch[j] = batch[j], batch[i]
		}
	}
}

// releaseDue moves held messages whose due boundary has arrived into out
// (staging order preserved) and compacts the held list in place.
func (ch *chaosState) releaseDue(phase int64) []heldMsg {
	if len(ch.held) == 0 {
		return nil
	}
	due := ch.dueScratch[:0]
	kept := ch.held[:0]
	for _, h := range ch.held {
		if h.due <= phase {
			due = append(due, h) // dueScratch backing array is recycled across boundaries
		} else {
			kept = append(kept, h) // appends into held's own backing array (kept = ch.held[:0]), never grows
		}
	}
	// Zero the tail so released payloads are not retained by the backing
	// array.
	for i := len(kept); i < len(ch.held); i++ {
		ch.held[i] = heldMsg{}
	}
	ch.held = kept
	ch.dueScratch = due
	return due
}
