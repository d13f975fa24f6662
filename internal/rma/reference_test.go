package rma

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/parallel"
)

// The boundary as it was before deliver became a counting sort over flat
// arrays — one staging and one window slice per rank, first slots from a
// shared arena — kept verbatim (names prefixed "old") as the oracle the
// current boundary must equal landing for landing. oldWorld shadows the
// World fields whose shape changed; its edits are the renames (the "old"
// prefix, on the staging and arena fields too), and the removal of the fault
// kinds the runtime no longer has (only delays remain).

type oldWorld struct {
	*World

	inbox     [][]Message // readable this phase
	oldStaged [][]Message // oldStaged[from]: puts issued this phase

	recvMsgs  []int64 // per-rank landings at this boundary, zeroed by fold
	recvBytes []int64

	oldArena   []Message  // unassigned first chunks, see oldFirstChunk
	oldArenaMu sync.Mutex // Put reaches oldFirstChunk from concurrent phase functions
}

func newOldWorld(p int, model CostModel) *oldWorld {
	return &oldWorld{
		World:     NewWorld(p, model),
		inbox:     make([][]Message, p),
		oldStaged: make([][]Message, p),
		recvMsgs:  make([]int64, p),
		recvBytes: make([]int64, p),
	}
}

// oldWindowCap and oldArenaBufs size first-touch growth: a window or
// staging buffer gets its first oldWindowCap slots from an arena block
// shared by oldArenaBufs buffers.
const (
	oldWindowCap = 8
	oldArenaBufs = 256
)

func (w *oldWorld) oldFirstChunk() []Message {
	w.oldArenaMu.Lock()
	defer w.oldArenaMu.Unlock()
	if len(w.oldArena) < oldWindowCap {
		w.oldArena = make([]Message, oldWindowCap*oldArenaBufs)
	}
	c := w.oldArena[:0:oldWindowCap]
	w.oldArena = w.oldArena[oldWindowCap:]
	return c
}

func (w *oldWorld) oldPut(from, to int, tag Tag, bytes int, payload any) {
	if w.closed {
		panic(ErrClosed)
	}
	if from < 0 || from >= w.P || to < 0 || to >= w.P {
		panic(fmt.Sprintf("rma: Put %d -> %d: rank out of range (P=%d)", from, to, w.P))
	}
	if bytes < 0 || bytes > math.MaxInt32 {
		panic(fmt.Sprintf("rma: Put size %d bytes out of range (0..%d)", bytes, math.MaxInt32))
	}
	if cap(w.oldStaged[from]) == 0 {
		w.oldStaged[from] = w.oldFirstChunk()
	}
	w.oldStaged[from] = append(w.oldStaged[from], Message{Payload: payload, From: int32(from), To: int32(to), Bytes: int32(bytes), Tag: tag}) // staging buffers keep their capacity across phases (deliver resets to st[:0])
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

func (w *oldWorld) oldInbox(rank int) []Message {
	return w.inbox[rank]
}

func (w *oldWorld) oldReset(model CostModel) {
	w.Model, w.Parallel = model, false
	for p := range w.inbox {
		// Slots past len were nil-ed when their phase was delivered.
		clear(w.inbox[p])
		clear(w.oldStaged[p])
		w.inbox[p], w.oldStaged[p] = w.inbox[p][:0], w.oldStaged[p][:0]
	}
	clear(w.flops)
	clear(w.msgs)
	clear(w.bytes)
	clear(w.recvMsgs)
	clear(w.recvBytes)
	w.liveInbox = w.liveInbox[:0]
	w.idleMaxVec = nil
	w.simTime, w.phases, w.delivered = 0, 0, 0
	w.totalMsgs, w.totalBytes = [numTags]int64{}, [numTags]int64{}
	w.trace, w.chaos = nil, nil
	w.closed = false
}

func (w *oldWorld) oldRunPhaseActive(active []bool, actList []int32, idle []float64, f func(rank int)) {
	if w.closed {
		panic(ErrClosed)
	}
	if active == nil {
		actList, idle = w.all, nil
	}
	w.f, w.active, w.actList, w.idle = f, active, actList, idle
	var pool *parallel.Pool // nil runs the chunks inline, in ascending order
	if w.Parallel {
		pool = parallel.Default()
	}
	w.chunks = max(1, min(pool.Workers(), w.P))
	pool.Run(&w.task, w.chunks)
	w.oldDeliver()
	w.f, w.active, w.actList, w.idle = nil, nil, nil, nil
}

func (w *oldWorld) oldDeliver() {
	ch, landedBefore := w.chaos, w.delivered
	for _, p := range w.liveInbox {
		in := w.inbox[p]
		for i := range in {
			in[i].Payload = nil // do not retain payloads past their phase
		}
		w.inbox[p] = in[:0]
	}
	w.liveInbox = w.liveInbox[:0]
	if ch != nil {
		w.oldOpenFaultBoundary()
	}
	for _, from := range w.actList {
		st := w.oldStaged[from]
		for i := range st {
			m := &st[i]
			w.totalMsgs[m.Tag]++
			w.totalBytes[m.Tag] += int64(m.Bytes)
			if ch == nil {
				w.oldLand(*m)
			} else {
				w.oldLandFaulty(m)
			}
			m.Payload = nil
		}
		w.oldStaged[from] = st[:0]
	}

	maxCost := w.oldPhaseCost(w.trace == nil)
	w.simTime += maxCost
	if w.trace != nil {
		w.oldPhaseCost(true)
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

func (w *oldWorld) oldPhaseCost(settle bool) float64 {
	active, idle, maxCost := w.active, w.idle, 0.0
	if w.chaos != nil {
		for p := range w.flops {
			fl := w.flops[p]
			if idle != nil && !active[p] {
				fl = idle[p]
			}
			maxCost = w.oldFold(maxCost, p, fl, 1, settle)
		}
		return maxCost
	}
	if idle != nil {
		maxCost = w.Model.Gamma * w.idleMax(idle)
	}
	for _, p := range w.actList {
		maxCost = w.oldFold(maxCost, int(p), w.flops[p], 1, settle)
	}
	for _, p := range w.liveInbox {
		if active == nil || active[p] {
			continue // a member: folded above
		}
		fl := 0.0 // a skipped receiver: its landings on top of the idle charge
		if idle != nil {
			fl = idle[p]
		}
		maxCost = w.oldFold(maxCost, int(p), fl, 1, settle)
	}
	return maxCost
}

func (w *oldWorld) oldFold(maxCost float64, p int, fl, mult float64, settle bool) float64 {
	h := float64(w.msgs[p] + w.recvMsgs[p])
	hb := float64(w.bytes[p] + w.recvBytes[p])
	if cost := (w.Model.Gamma*fl + w.Model.Alpha*h + w.Model.Beta*hb) * mult; cost > maxCost {
		maxCost = cost
	}
	if !settle {
		return maxCost
	}
	if w.trace != nil && (w.flops[p] != 0 || w.msgs[p] != 0 || w.recvMsgs[p] != 0) {
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
			B:     int32(w.recvMsgs[p]),
			I1:    w.bytes[p],
			I2:    w.recvBytes[p],
			Phase: w.phases,
		})
	}
	w.flops[p], w.msgs[p], w.bytes[p], w.recvMsgs[p], w.recvBytes[p] = 0, 0, 0, 0, 0
	return maxCost
}

func (w *oldWorld) oldLand(m Message) {
	if len(w.inbox[m.To]) == 0 {
		w.liveInbox = append(w.liveInbox, m.To) // preallocated to cap P in NewWorld; entries are distinct ranks, so len never exceeds P
		if cap(w.inbox[m.To]) == 0 {
			w.inbox[m.To] = w.oldFirstChunk()
		}
	}
	w.inbox[m.To] = append(w.inbox[m.To], m) // window buffers keep their capacity across phases (deliver resets to in[:0])
	w.recvMsgs[m.To]++
	w.recvBytes[m.To] += int64(m.Bytes)
	w.delivered++
	if w.trace != nil {
		w.trace.Emit(obs.Event{
			Kind:  obs.KindDeliver,
			Rank:  m.To,
			A:     m.From,
			Tag:   uint8(m.Tag),
			I1:    int64(m.Bytes),
			Ts:    w.simTime,
			Phase: w.phases,
		})
	}
}

func (w *oldWorld) oldOpenFaultBoundary() {
	for _, h := range w.chaos.releaseDue(w.phases) {
		w.oldLand(h.m)
	}
}

func (w *oldWorld) oldLandFaulty(m *Message) {
	ch := w.chaos
	if ch.plan.DelayProb > 0 && ch.rng.float() < ch.plan.DelayProb {
		k := 1 + ch.rng.intn(ch.plan.DelayMax)
		held := *m
		if ch.hold != nil {
			ch.hold(&held)
		}
		ch.held = append(ch.held, heldMsg{due: w.phases + int64(k), m: held})
		ch.delayed++
		w.emitFault(obs.FlagFaultDelayed, int(m.From), int(m.To))
		return
	}
	w.oldLand(*m)
}

// tok is the oracle's payload: a pointer both worlds share, which holdTok
// swaps for another shared pointer, so a delayed message's payload is the
// same pointer in both.
type tok struct{ id int }

const toks = 1 << 12

var tokens, tokenClones [toks]tok

func init() {
	for i := range tokens {
		tokens[i].id = i
	}
}

func holdTok(m *Message) { m.Payload = &tokenClones[m.Payload.(*tok).id] }

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

// oracleScript is the Put sequence both worlds run: rank r in phase ph sends
// 0–5 messages to random targets — itself sometimes, one target twice
// sometimes — with a tag, size and payload drawn from (seed, phase, rank),
// after reading its window so the windows are live reads.
func oracleScript(seed int64, ph, p int, rank int, read func(int) []Message, put func(from, to int, tag Tag, bytes int, payload any)) {
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
		put(rank, to, Tag(hj>>40&1), int(hj>>20%97), &tokens[hj>>8%toks])
	}
}

// TestDeliveryMatchesReference: the two-pass boundary equals the per-rank
// one it replaced at every boundary — every window (each Message whole:
// origin, target, tag, size, payload pointer, order), the LiveInboxes order,
// Stats, the messages in flight and SimTime to the bit — under no plan, a
// delay plan and the heavy chaos plan (whose cost is the reference's pass
// over all ranks against the analytic fold), inline and at pool widths 2, 4
// and 7, with phases over every rank and over active subsets, traced (every
// event equal) and untraced, and across a Reset taken right after a phase
// that sent.
func TestDeliveryMatchesReference(t *testing.T) {
	const p, phases = 37, 24
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"delay", &FaultPlan{Seed: 3, DelayProb: 0.4, DelayMax: 3}},
		{"chaos", chaosPlan(8)},
	}
	active, idle := make([]bool, p), make([]float64, p)
	for r := range active {
		active[r], idle[r] = r%3 != 1, 2
	}
	list := maskList(active)
	for k, pc := range plans {
		seed := int64(17 + k)
		for _, traced := range []bool{false, true} {
			for _, par := range []bool{false, true} {
				name := fmt.Sprintf("%s/traced=%v/pool=%v", pc.name, traced, par)
				t.Run(name, func(t *testing.T) {
					atWidths(t, par, func(t *testing.T) {
						w, o := NewWorld(p, DefaultCostModel()), newOldWorld(p, DefaultCostModel())
						var rw, ro *obs.Recorder
						start := func() {
							w.Parallel, o.Parallel = par, par
							w.InstallFaults(pc.plan, holdTok)
							o.InstallFaults(pc.plan, holdTok)
							if traced {
								rw, ro = obs.NewRecorderCap(p, 1<<12), obs.NewRecorderCap(p, 1<<12)
								w.SetTracer(rw)
								o.SetTracer(ro)
							}
						}
						start()
						for ph := 0; ph < phases; ph++ {
							if ph == phases/2 {
								// Reset right after a phase that sent: every window
								// and count must start from nothing.
								if len(w.LiveInboxes()) == 0 {
									t.Fatal("no window is written before the Reset: the case tests nothing")
								}
								w.Reset(DefaultCostModel())
								o.oldReset(DefaultCostModel())
								start()
							}
							fw := func(r int) { oracleScript(seed, ph, p, r, w.Inbox, w.Put) }
							fo := func(r int) { oracleScript(seed, ph, p, r, o.oldInbox, o.oldPut) }
							if ph%4 == 3 {
								w.RunPhaseActive(active, list, idle, fw)
								o.oldRunPhaseActive(active, list, idle, fo)
							} else {
								w.RunPhase(fw)
								o.oldRunPhaseActive(nil, nil, nil, fo)
							}
							sameBoundary(t, ph, w, o)
						}
						if ew, eo := rw.Events(), ro.Events(); !reflect.DeepEqual(ew, eo) {
							t.Errorf("trace events differ: %d against the reference's %d", len(ew), len(eo))
						}
					})
				})
			}
		}
	}
}

// sameBoundary fails the test where w's state after a boundary differs from
// the reference's.
func sameBoundary(t *testing.T, ph int, w *World, o *oldWorld) {
	t.Helper()
	for r := 0; r < w.P; r++ {
		got, want := w.Inbox(r), o.oldInbox(r)
		if len(got) != len(want) {
			t.Fatalf("phase %d rank %d: %d messages, reference %d", ph, r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("phase %d rank %d message %d: %+v, reference %+v", ph, r, i, got[i], want[i])
			}
		}
	}
	if !reflect.DeepEqual(w.LiveInboxes(), o.liveInbox) {
		t.Fatalf("phase %d: LiveInboxes %v, reference %v", ph, w.LiveInboxes(), o.liveInbox)
	}
	gs, ws := w.Stats(), o.Stats()
	if gs != ws || math.Float64bits(gs.SimTime) != math.Float64bits(ws.SimTime) {
		t.Fatalf("phase %d: stats %+v, reference %+v", ph, gs, ws)
	}
	if w.InFlight() != o.InFlight() {
		t.Fatalf("phase %d: %d in flight, reference %d", ph, w.InFlight(), o.InFlight())
	}
}
