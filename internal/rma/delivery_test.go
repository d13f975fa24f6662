package rma

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"southwell/internal/obs"
)

// The delivery property: what a boundary must produce, stated from the
// test's own ledger of a random Put script and sharing no code with the
// runtime. Every Put carries a unique token, the index of its ledger entry,
// and the hold function swaps a held message's token for a heldToken of
// the same index, so a landing names the Put it is and shows whether hold
// ran on it.

type (
	token     int
	heldToken int
)

// put is the ledger's record of one Put.
type put struct {
	from, to int32
	tag      Tag
	bytes    int32
	staged   int64 // the boundary it was staged for
	landed   int64 // the boundary it landed at, −1 until then
	held     bool  // the hold function ran on it
}

// ledger is what the test knows of a world since its last Reset: every Put
// and where it went, the flops charged this phase, the clock, and the trace
// events a tracer must hold.
type ledger struct {
	w       *World
	puts    []put
	held    []int // the tokens hold saw at the boundary in flight, in call order
	flops   []float64
	clock   float64
	phases  int64
	events  [][]obs.Event // each rank's put, delivery and cost events
	control []obs.Event   // fault and phase events
}

func newLedger(w *World) *ledger {
	return &ledger{w: w, flops: make([]float64, w.P), events: make([][]obs.Event, w.P)}
}

// put stages a Put through the world under the next token.
func (l *ledger) put(from, to int, tag Tag, bytes int) {
	l.puts = append(l.puts, put{int32(from), int32(to), tag, int32(bytes), l.phases, -1, false})
	l.w.Put(from, to, tag, bytes, token(len(l.puts)-1))
}

// charge charges rank flops through the world and in the ledger.
func (l *ledger) charge(rank int, flops float64) {
	l.w.Charge(rank, flops)
	l.flops[rank] += flops
}

// hold is the world's hold function.
func (l *ledger) hold(m *Message) {
	id := int(m.Payload.(token))
	l.held = append(l.held, id)
	m.Payload = heldToken(id)
}

// boundary checks the boundary that just closed a phase whose first Put
// was token first, run over the ranks active names (nil: every rank) with
// skipped ranks charged idle, under a plan that holds a message back at
// most maxDelay boundaries. It asserts that:
//   - hold ran once on each message held back, and only on messages staged
//     at this boundary;
//   - each window holds, ascending by token, the held messages released
//     now (staging order), then this boundary's staged messages to it in
//     (origin, put order), less those held back — every field as put;
//   - a held message lands once, with hold's payload, 1 to maxDelay
//     boundaries after it was staged, and every staged message either
//     lands now or is held;
//   - LiveInboxes lists the written windows in first-landing order;
//   - Stats and InFlight match the ledger, and SimTime its clock by bits:
//     the step is the max over ranks of γ·(flops, or idle[p] for a skipped
//     rank) + α·(sent + landed) + β·(bytes sent + landed).
//
// It also records the events a tracer must hold for the boundary, which
// ledger.trace compares.
func (l *ledger) boundary(first int, active []bool, idle []float64, maxDelay int64) error {
	w, b, before := l.w, l.phases, l.clock
	for _, id := range l.held {
		p := &l.puts[id]
		if id < first || p.held {
			return fmt.Errorf("boundary %d: hold ran on message %d, staged at boundary %d, held %v", b, id, p.staged, p.held)
		}
		p.held = true
		l.control = append(l.control, obs.Event{Kind: obs.KindFault, Rank: obs.ControlRank, Flag: obs.FlagFaultDelayed, A: p.from, B: p.to, Ts: before, Phase: b})
	}
	sent, sentBytes := make([]int64, w.P), make([]int64, w.P)
	for _, p := range l.puts[first:] {
		sent[p.from]++
		sentBytes[p.from] += int64(p.bytes)
		l.events[p.from] = append(l.events[p.from], obs.Event{Kind: obs.KindPut, Rank: p.from, A: p.to, Tag: uint8(p.tag), I1: int64(p.bytes), Ts: before, Phase: b})
	}
	costs := make([]obs.Event, w.P) // each rank's cost row, Ts still to come
	var live [][2]int               // (first token, rank) of every written window
	landings, step := int64(0), 0.0
	for r := range w.P {
		in, prev, bytes := w.Inbox(r), -1, int64(0)
		for i, m := range in {
			var id int
			var held bool
			switch v := m.Payload.(type) {
			case token:
				id = int(v)
			case heldToken:
				id, held = int(v), true
			default:
				return fmt.Errorf("boundary %d rank %d message %d: payload %v is no token", b, r, i, m.Payload)
			}
			if id <= prev || id >= len(l.puts) {
				return fmt.Errorf("boundary %d rank %d message %d: token %d after %d of %d", b, r, i, id, prev, len(l.puts))
			}
			if i == 0 {
				live = append(live, [2]int{id, r})
			}
			prev = id
			p := &l.puts[id]
			switch {
			case m != (Message{Payload: m.Payload, From: p.from, To: int32(r), Bytes: p.bytes, Tag: p.tag}) || p.to != int32(r):
				return fmt.Errorf("boundary %d rank %d message %d: %+v, put as %+v", b, r, i, m, *p)
			case p.landed >= 0:
				return fmt.Errorf("boundary %d rank %d: message %d lands again, first at boundary %d", b, r, id, p.landed)
			case held != p.held:
				return fmt.Errorf("boundary %d rank %d: message %d lands with hold's payload %v, held %v", b, r, id, held, p.held)
			case p.held && (b-p.staged < 1 || b-p.staged > maxDelay):
				return fmt.Errorf("boundary %d rank %d: held message %d staged at boundary %d lands %d later, at most %d", b, r, id, p.staged, b-p.staged, maxDelay)
			case !p.held && id < first:
				return fmt.Errorf("boundary %d rank %d: message %d staged at boundary %d lands only now, never held", b, r, id, p.staged)
			}
			p.landed = b
			bytes += int64(p.bytes)
			l.events[r] = append(l.events[r], obs.Event{Kind: obs.KindDeliver, Rank: int32(r), A: p.from, Tag: uint8(p.tag), I1: int64(p.bytes), Ts: before, Phase: b})
		}
		fl := l.flops[r]
		if active != nil && !active[r] {
			if sent[r] != 0 {
				return fmt.Errorf("boundary %d: skipped rank %d sent %d messages", b, r, sent[r])
			}
			fl = idle[r]
		}
		h, hb := float64(sent[r]+int64(len(in))), float64(sentBytes[r]+bytes)
		step = max(step, w.Model.Gamma*fl+w.Model.Alpha*h+w.Model.Beta*hb)
		landings += int64(len(in))
		// A rank that ran or was written to logs its cost row if it did
		// anything.
		if (active == nil || active[r] || len(in) > 0) && (l.flops[r] != 0 || sent[r] != 0 || len(in) != 0) {
			fc, mc, bc := w.Model.Gamma*fl, w.Model.Alpha*h, w.Model.Beta*hb
			costs[r] = obs.Event{Kind: obs.KindRankCost, Rank: int32(r), Dur: fc + mc + bc, V1: fc, V2: mc, V3: bc,
				A: int32(sent[r]), B: int32(len(in)), I1: sentBytes[r], I2: bytes, Phase: b}
		}
	}
	for id := first; id < len(l.puts); id++ {
		if p := l.puts[id]; (p.landed == b) == p.held {
			return fmt.Errorf("boundary %d: message %d staged here landed %v and was held %v", b, id, p.landed == b, p.held)
		}
	}
	slices.SortFunc(live, func(x, y [2]int) int { return x[0] - y[0] })
	want := make([]int32, len(live))
	for i, e := range live {
		want[i] = int32(e[1])
	}
	if got := w.LiveInboxes(); !slices.Equal(got, want) {
		return fmt.Errorf("boundary %d: LiveInboxes %v, first-landing order %v", b, got, want)
	}

	l.clock += step
	l.phases++
	for r, e := range costs {
		if e.Kind == obs.KindRankCost {
			e.Ts = l.clock
			l.events[r] = append(l.events[r], e)
		}
	}
	l.control = append(l.control, obs.Event{Kind: obs.KindPhase, Rank: obs.ControlRank, Ts: l.clock, Dur: step, I1: landings, Phase: b})
	st := Stats{SimTime: l.clock, Phases: l.phases}
	inFlight := 0
	for _, p := range l.puts {
		if p.tag == TagSolve {
			st.SolveMsgs++
			st.SolveBytes += int64(p.bytes)
		} else {
			st.ResMsgs++
			st.ResBytes += int64(p.bytes)
		}
		if p.landed >= 0 {
			st.Delivered++
		}
		if p.held {
			st.DelayedMsgs++
			if p.landed < 0 {
				inFlight++
			}
		}
	}
	if got := w.Stats(); got != st || math.Float64bits(got.SimTime) != math.Float64bits(st.SimTime) {
		return fmt.Errorf("boundary %d: stats %+v, ledger %+v", b, got, st)
	}
	if w.InFlight() != inFlight {
		return fmt.Errorf("boundary %d: %d in flight, ledger %d", b, w.InFlight(), inFlight)
	}
	l.held = l.held[:0]
	clear(l.flops)
	return nil
}

// trace checks what rec holds against the ledger, every event whole and in
// order: each rank's puts, deliveries and cost rows, and the control
// track's faults and phases. A nil rec checks nothing.
func (l *ledger) trace(rec *obs.Recorder) error {
	if rec == nil {
		return nil
	}
	if rec.Dropped() != 0 {
		return fmt.Errorf("the recorder dropped %d events", rec.Dropped())
	}
	events, control := make([][]obs.Event, l.w.P), []obs.Event(nil)
	for _, e := range rec.Events() {
		if e.Rank == obs.ControlRank {
			control = append(control, e)
		} else {
			events[e.Rank] = append(events[e.Rank], e)
		}
	}
	for r := range events {
		if !slices.Equal(events[r], l.events[r]) {
			return fmt.Errorf("rank %d: %d events, the ledger's %d, or they differ", r, len(events[r]), len(l.events[r]))
		}
	}
	if !slices.Equal(control, l.control) {
		return fmt.Errorf("%d control events, the ledger's %d, or they differ", len(control), len(l.control))
	}
	return nil
}

// mix is a splitmix64 step over the script's coordinates.
func mix(vs ...int64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		z += uint64(v)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// oracleScript is the property's Put sequence: rank r in phase ph sends
// 0–5 messages to random targets — itself sometimes, one target twice
// sometimes — with a tag and size drawn from (seed, phase, rank), after
// reading its window so the windows are live reads.
func oracleScript(seed int64, ph, p int, rank int, read func(int) []Message, put func(from, to int, tag Tag, bytes int)) {
	n := 0
	for _, m := range read(rank) {
		n += int(m.Bytes)
	}
	h := mix(seed, int64(ph), int64(rank), int64(n))
	k := int(h % 6)
	for j := 0; j < k; j++ {
		hj := mix(int64(h), int64(j))
		to := int(hj % uint64(p))
		switch hj >> 60 {
		case 0, 1:
			to = rank // self-Put
		case 2, 3:
			if j > 0 {
				to = int(mix(int64(h), int64(j-1)) % uint64(p)) // the previous target again
			}
		}
		put(rank, to, Tag(hj>>40&1), int(hj>>20%97))
	}
}

// TestDeliveryProperty runs oracleScript and holds every boundary to the
// ledger (ledger.boundary) — phases over every rank and over an active
// subset whose skipped ranks carry idle charges of their own, under no
// plan, the heavy delay plan and a plan that holds every message back one
// boundary, traced (every delivery, fault and phase event against the
// ledger) and untraced — across a Reset taken right after a phase that
// sent, and on past the script until nothing is in flight. The pool=true
// rows run the same check in 2, 4 and 7 worlds at once (atWidths).
func TestDeliveryProperty(t *testing.T) {
	const p, phases = 37, 24
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"chaos", chaosPlan(8)},
		{"every", DelayPlan(9, 1, 1)},
	}
	// A skipped rank's idle charge outweighs every member's cost, so the
	// active phases' step is a skipped rank's: γ·idle[p], plus its landings
	// if it has any.
	active, idle := make([]bool, p), make([]float64, p)
	for r := range active {
		active[r], idle[r] = r%3 != 1, float64(1+r%5)*1e4
		if !active[r] {
			idle[r] *= 10
		}
	}
	list, model := maskList(active), DefaultCostModel()
	for k, pc := range plans {
		seed, maxDelay := int64(17+k), int64(0)
		if pc.plan != nil {
			maxDelay = int64(pc.plan.DelayMax)
		}
		for _, traced := range []bool{false, true} {
			check := func() error {
				w := NewWorld(p, model)
				var l *ledger
				var rec *obs.Recorder
				start := func() {
					l = newLedger(w)
					w.InstallFaults(pc.plan, l.hold)
					if traced {
						rec = obs.NewRecorderCap(p, 1<<12)
						w.SetTracer(rec)
					}
				}
				start()
				for ph := 0; ph < phases || w.InFlight() > 0 && ph < phases+int(maxDelay); ph++ {
					if ph == phases/2 {
						// Reset right after a phase that sent: every window
						// and count must start from nothing.
						if len(w.LiveInboxes()) == 0 {
							return errors.New("no window is written before the Reset: the case tests nothing")
						}
						if err := l.trace(rec); err != nil {
							return err
						}
						w.Reset(model)
						for r := range p {
							if len(w.Inbox(r)) != 0 {
								return fmt.Errorf("rank %d's window holds %d messages after Reset", r, len(w.Inbox(r)))
							}
						}
						start()
					}
					first := len(l.puts)
					f := func(r int) {
						fl := float64(mix(seed, int64(ph), int64(r)) % 1000)
						if ph%4 == 3 {
							fl += idle[r] // a member charges at least its idle charge
						}
						l.charge(r, fl)
						if ph < phases {
							oracleScript(seed, ph, p, r, w.Inbox, l.put)
						}
					}
					var err error
					if ph%4 == 3 {
						w.RunPhaseActive(active, list, idle, f)
						err = l.boundary(first, active, idle, maxDelay)
					} else {
						w.RunPhase(f)
						err = l.boundary(first, nil, nil, maxDelay)
					}
					if err != nil {
						return err
					}
				}
				if n := w.InFlight(); n != 0 {
					return fmt.Errorf("%d messages still in flight %d boundaries after the script", n, maxDelay)
				}
				return l.trace(rec)
			}
			for _, concurrent := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/traced=%v/pool=%v", pc.name, traced, concurrent), func(t *testing.T) {
					atWidths(t, concurrent, check)
				})
			}
		}
	}
}
