package rma

import "southwell/internal/obs"

// Fault injection ("chaos") for the simulated one-sided runtime.
//
// A FaultPlan installed on a World delays delivery the way a congested
// interconnect does: an individual Put is held back for extra phase
// boundaries and then lands ahead of that boundary's staged traffic.
// Nothing is lost, duplicated or reordered within a boundary, and no rank
// is slowed or descheduled, so the plan touches only the messages it holds
// — never a window, a rank's cost, or a pass over all P ranks.
//
// Every random decision is drawn from a plan-owned splitmix64 PRNG inside
// deliver(), after the phase's ranks have run — so a chaos run is
// bit-reproducible from FaultPlan.Seed (asserted by the run-twice chaos
// tests). No math/rand global state is touched.

// FaultPlan describes deterministic message delays for a World. The zero
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
}

// DelayPlan returns the plan that holds each message back, independently
// with probability prob, by 1..maxDelay phases.
func DelayPlan(seed int64, prob float64, maxDelay int) *FaultPlan {
	return &FaultPlan{Seed: seed, DelayProb: prob, DelayMax: maxDelay}
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
// run state. All of it is read and written in deliver, on the calling
// goroutine.
type chaosState struct {
	plan FaultPlan
	rng  prng

	hold       func(*Message) // InstallFaults' hold function, or nil
	held       []heldMsg      // delayed messages, staging order
	dueScratch []heldMsg      // releaseDue scratch, reused across boundaries

	delayed int64 // messages held back
}

// InstallFaults installs (a copy of) plan on the world, replacing any
// previous plan and rewinding the fault PRNG to plan.Seed. A nil plan
// removes fault injection. It must be called before the first phase.
//
// hold, if not nil, runs once on each message the plan holds back, at the
// boundary that holds it and before it lands: senders rewrite their buffers
// one phase after a normal delivery, so a delayed message must take what
// its payload names with it, and hold is where it does (it may replace
// Payload). A nil hold keeps the payload by reference.
func (w *World) InstallFaults(plan *FaultPlan, hold func(*Message)) {
	if plan == nil {
		w.chaos = nil
		return
	}
	ch := &chaosState{plan: *plan, rng: prng{s: uint64(plan.Seed)}, hold: hold}
	if ch.plan.DelayMax < 1 {
		ch.plan.DelayMax = 1
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

// landFaulty decides the fate of one staged message at a delivery boundary:
// captured as delayed (it returns false: the message leaves staging, and the
// hold function runs on its copy in the held list) or landed. The copy is
// appended before hold sees it: hold is a func value, so the address of a
// local handed to it would make that local escape on every delay.
func (w *World) landFaulty(m *Message) bool {
	ch := w.chaos
	if ch.plan.DelayProb > 0 && ch.rng.float() < ch.plan.DelayProb {
		k := 1 + ch.rng.intn(ch.plan.DelayMax)
		ch.held = append(ch.held, heldMsg{due: w.phases + int64(k), m: *m})
		if ch.hold != nil {
			ch.hold(&ch.held[len(ch.held)-1].m)
		}
		ch.delayed++
		w.emitFault(obs.FlagFaultDelayed, int(m.From), int(m.To))
		return false
	}
	w.land(m)
	return true
}

// releaseDue returns the held messages whose due boundary has arrived, in
// staging order, and compacts the held list in place. deliver lands them
// ahead of the boundary's staged messages.
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
