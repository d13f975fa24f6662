package rma

import (
	"math"
	"reflect"
	"testing"

	"southwell/internal/obs"
)

// resetTrace is everything the reset script can observe of a world: what
// every rank read from its window in every phase, and the world's counters
// and queries at the end.
type resetTrace struct {
	seen      [][]int64
	live      []int32
	stats     Stats
	phases    int64
	now       float64
	inFlight  int
	quiescent bool
}

// resetScript drives one fixed sequence of Put / Charge / RunPhase /
// RunPhaseActive on a ring of ranks and records what it saw.
func resetScript(w *World, seed int64) resetTrace {
	p := w.P
	tr := resetTrace{seen: make([][]int64, p)}
	phase := 0
	body := func(rank int) {
		for _, m := range w.Inbox(rank) {
			tr.seen[rank] = append(tr.seen[rank], int64(m.From)*1_000_000+m.Payload.(int64))
		}
		tr.seen[rank] = append(tr.seen[rank], -1) // phase separator
		h := seed + int64(phase)*131 + int64(rank)*17
		if h%3 != 0 {
			w.Put(rank, (rank+1)%p, TagSolve, int(h%64), int64(phase)*100+int64(rank))
		}
		if h%5 != 0 {
			w.Put(rank, (rank+p-1)%p, TagResidual, int(h%32), int64(phase)*100+int64(rank)+7)
		}
		w.Charge(rank, float64(h%1000))
	}
	active, idle := make([]bool, p), make([]float64, p)
	for r := range active {
		active[r], idle[r] = r%3 != 1, 5
	}
	list := maskList(active)
	for ; phase < 4; phase++ {
		w.RunPhase(body)
	}
	for ; phase < 7; phase++ {
		w.RunPhaseActive(active, list, idle, body)
	}
	for ; phase < 13; phase++ {
		w.RunPhase(body)
	}
	tr.live = append(tr.live, w.LiveInboxes()...)
	tr.stats, tr.phases, tr.now = w.Stats(), w.PhaseIndex(), w.Now()
	tr.inFlight, tr.quiescent = w.InFlight(), w.FaultsQuiescent()
	return tr
}

// dirtyWorld returns a world that has run a different sequence under every
// optional subsystem — a chaos plan with messages still held back, a
// tracer, a put left in staging — and was then closed.
func dirtyWorld(t *testing.T, p int, rec *obs.Recorder) *World {
	t.Helper()
	w := NewWorld(p, CostModel{Alpha: 3, Beta: 0.5, Gamma: 0.25})
	send := func(rank int) {
		_ = w.Inbox(rank)
		w.Put(rank, (rank+1)%p, TagSolve, 24, int64(rank))
		w.Put(rank, (rank+p-1)%p, TagResidual, 8, int64(-rank))
		w.Charge(rank, 7)
	}
	for i := 0; i < 3; i++ {
		w.RunPhase(send)
	}
	w.InstallFaults(DelayPlan(99, 0.6, 4), nil)
	w.SetTracer(rec)
	for i := 0; i < 5; i++ {
		w.RunPhase(send)
	}
	if w.InFlight() == 0 {
		t.Fatal("dirty world holds no delayed message: the reset test would prove nothing")
	}
	w.Put(0, 1, TagSolve, 8, int64(42)) // stays in staging: no phase delivers it
	w.Close()
	return w
}

// peakWorld returns a world whose largest phase is not its last: ten puts
// per rank (past the arrays' first allocation of eight), then one put in
// all, so a Reset that cleared only what the last boundary wrote would
// leave the first phase's messages in the slots behind it.
func peakWorld(t *testing.T, p int, rec *obs.Recorder) *World {
	t.Helper()
	w := NewWorld(p, DefaultCostModel())
	w.SetTracer(rec)
	w.RunPhase(func(rank int) {
		for i := range 10 {
			w.Put(rank, (rank+1+i)%p, TagSolve, 8, int64(i))
		}
	})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagResidual, 8, int64(-1))
		}
	})
	if len(w.window) != 1 || len(w.stage) != 0 || cap(w.window) < 10*p {
		t.Fatalf("peak world: window %d of %d, stage %d: the reset test would prove nothing", len(w.window), cap(w.window), len(w.stage))
	}
	return w
}

// TestResetIsAFreshWorld: a world that ran something else, was closed and
// Reset, is indistinguishable from a NewWorld — same windows in the same
// order, same counters, SimTime to the bit — with and without a fault plan,
// and it keeps nothing of its previous run: every slot of both message
// arrays' capacity is the zero Message, also after a run whose largest
// phase was not its last (peak).
func TestResetIsAFreshWorld(t *testing.T) {
	const p = 9
	model := DefaultCostModel()
	for _, tc := range []struct {
		name   string
		faults *FaultPlan
		dirty  func(t *testing.T, p int, rec *obs.Recorder) *World
	}{
		{"seq", nil, dirtyWorld},
		{"chaos", chaosPlan(5), dirtyWorld},
		{"peak", nil, peakWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := NewWorld(p, model)
			fresh.InstallFaults(tc.faults, nil)
			want := resetScript(fresh, 11)

			rec := obs.NewRecorder(p)
			w := tc.dirty(t, p, rec)
			w.Reset(model)
			events := len(rec.Events())
			if w.Tracer() != nil || w.InFlight() != 0 || !w.FaultsQuiescent() {
				t.Errorf("after Reset: tracer %v, %d in flight, quiescent %v",
					w.Tracer(), w.InFlight(), w.FaultsQuiescent())
			}
			if w.Stats() != (Stats{}) || w.Now() != 0 || w.PhaseIndex() != 0 || len(w.LiveInboxes()) != 0 {
				t.Errorf("after Reset: stats %+v now %g phase %d live %v",
					w.Stats(), w.Now(), w.PhaseIndex(), w.LiveInboxes())
			}
			for r := 0; r < p; r++ {
				if w.inbox[r] != (inbound{}) || len(w.Inbox(r)) != 0 {
					t.Errorf("rank %d: window %+v survives Reset", r, w.inbox[r])
				}
			}
			for name, buf := range map[string][]Message{"window": w.window, "stage": w.stage} {
				if len(buf) != 0 {
					t.Errorf("%s: %d entries survive Reset", name, len(buf))
				}
				for i, m := range buf[:cap(buf)] {
					if m != (Message{}) {
						t.Fatalf("%s: slot %d still holds %+v after Reset", name, i, m)
					}
				}
			}
			w.InstallFaults(tc.faults, nil)
			got := resetScript(w, 11) // Put and the phases must not panic on the reopened world
			if len(rec.Events()) != events {
				t.Errorf("dropped tracer still received %d events after Reset", len(rec.Events())-events)
			}

			if math.Float64bits(got.stats.SimTime) != math.Float64bits(want.stats.SimTime) || math.Float64bits(got.now) != math.Float64bits(want.now) {
				t.Errorf("SimTime/Now %v/%v, want %v/%v", got.stats.SimTime, got.now, want.stats.SimTime, want.now)
			}
			gs, ws := reflect.ValueOf(got.stats), reflect.ValueOf(want.stats)
			for i := 0; i < gs.NumField(); i++ {
				if name := gs.Type().Field(i).Name; name != "SimTime" && gs.Field(i).Int() != ws.Field(i).Int() {
					t.Errorf("Stats.%s = %d, want %d", name, gs.Field(i).Int(), ws.Field(i).Int())
				}
			}
			if got.phases != want.phases || got.inFlight != want.inFlight || got.quiescent != want.quiescent {
				t.Errorf("phases/inFlight/quiescent %d/%d/%v, want %d/%d/%v",
					got.phases, got.inFlight, got.quiescent, want.phases, want.inFlight, want.quiescent)
			}
			if !reflect.DeepEqual(got.live, want.live) {
				t.Errorf("LiveInboxes %v, want %v", got.live, want.live)
			}
			for r := range want.seen {
				if !reflect.DeepEqual(got.seen[r], want.seen[r]) {
					t.Errorf("rank %d read\n%v, want\n%v", r, got.seen[r], want.seen[r])
				}
			}
		})
	}
}
