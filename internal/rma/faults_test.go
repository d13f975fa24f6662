package rma

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestDelayFaultHoldsMessageForExtraPhases(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, DelayProb: 1, DelayMax: 1}, nil)
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, "late")
		}
	})
	if w.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", w.InFlight())
	}
	w.RunPhase(func(rank int) {
		if rank == 1 && len(w.Inbox(1)) != 0 {
			t.Error("delayed message arrived on time")
		}
	})
	w.RunPhase(func(rank int) {
		if rank == 1 {
			in := w.Inbox(1)
			if len(in) != 1 || in[0].Payload.(string) != "late" {
				t.Errorf("delayed message not delivered one phase late: %+v", in)
			}
		}
	})
	if w.InFlight() != 0 {
		t.Errorf("InFlight = %d after delivery", w.InFlight())
	}
	st := w.Stats()
	if st.DelayedMsgs != 1 || st.Delivered != 1 {
		t.Errorf("stats: delayed %d delivered %d", st.DelayedMsgs, st.Delivered)
	}
}

// heldBuf is a payload whose buffer the sender rewrites after sending, as
// the dmem send buffers are.
type heldBuf struct{ vals []float64 }

// TestHoldRunsOnceOnEachHeldMessage: under a plan that holds every message
// back one phase, hold runs once per message, at the boundary that holds it
// — after the phase that sent it, before it lands — and what it leaves in
// Payload is what lands.
func TestHoldRunsOnceOnEachHeldMessage(t *testing.T) {
	w := NewWorld(3, CostModel{})
	held := map[*heldBuf]int{}
	var copies []*heldBuf
	w.InstallFaults(DelayPlan(5, 1, 1), func(m *Message) {
		b := m.Payload.(*heldBuf)
		held[b]++
		c := &heldBuf{vals: append([]float64(nil), b.vals...)}
		copies = append(copies, c)
		m.Payload = c
	})
	bufs := []*heldBuf{{vals: []float64{1}}, {vals: []float64{2}}, {vals: []float64{3}}}
	w.RunPhase(func(rank int) {
		w.Put(rank, (rank+1)%3, TagSolve, 8, bufs[rank])
	})
	if len(held) != 3 || len(copies) != 3 {
		t.Fatalf("hold saw %d payloads in %d calls, want 3 in 3", len(held), len(copies))
	}
	for rank, b := range bufs {
		if held[b] != 1 {
			t.Errorf("hold ran %d times on rank %d's message, want 1", held[b], rank)
		}
		b.vals[0] = -1 // the sender rewrites its buffer while the message is held
	}
	w.RunPhase(func(rank int) {
		if len(w.Inbox(rank)) != 0 {
			t.Errorf("rank %d: a held message landed on time", rank)
		}
	})
	w.RunPhase(func(rank int) {
		in := w.Inbox(rank)
		from := (rank + 2) % 3
		if len(in) != 1 || in[0].Payload.(*heldBuf) != copies[from] || copies[from].vals[0] != float64(from+1) {
			t.Errorf("rank %d received %+v, want hold's copy of rank %d's buffer", rank, in, from)
		}
	})
	if len(copies) != 3 {
		t.Errorf("hold ran %d times in all, want 3: it ran again on landing", len(copies))
	}
}

// TestHoldSkipsMessagesOnTime: hold runs for exactly the messages the plan
// delays — never under a plan that delays nothing, once per delayed message
// under one that delays some — and a message that lands on time keeps the
// payload it was sent with.
func TestHoldSkipsMessagesOnTime(t *testing.T) {
	for _, plan := range []*FaultPlan{DelayPlan(3, 0, 2), chaosPlan(11)} {
		w := NewWorld(8, CostModel{})
		calls := 0
		w.InstallFaults(plan, func(m *Message) {
			calls++
			m.Payload = nil
		})
		sent := make([]int, 8)
		for phase := 0; phase < 12; phase++ {
			w.RunPhase(func(rank int) {
				for _, m := range w.Inbox(rank) {
					if p, ok := m.Payload.(*int); ok && p != &sent[m.From] {
						t.Errorf("a message on time carries %p, sent %p", p, &sent[m.From])
					}
				}
				for k := 1; k <= 3; k++ {
					w.Put(rank, (rank+k)%8, TagSolve, 8, &sent[rank])
				}
			})
		}
		if got := int64(calls); got != w.Stats().DelayedMsgs {
			t.Errorf("plan %+v: hold ran %d times for %d delayed messages", *plan, calls, w.Stats().DelayedMsgs)
		}
		if plan.DelayProb > 0 && calls == 0 {
			t.Errorf("plan %+v delayed nothing: the case tests nothing", *plan)
		}
	}
}

// TestDelayedPayloadIsCloned: a hold function that copies the buffer makes
// the held message land with the values it was sent with, though the
// sender reuses its buffer while the message is held.
func TestDelayedPayloadIsCloned(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 3, DelayProb: 1, DelayMax: 1}, func(m *Message) {
		m.Payload = &heldBuf{vals: append([]float64(nil), m.Payload.(*heldBuf).vals...)}
	})
	buf := &heldBuf{vals: []float64{42}}
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, buf)
		}
	})
	buf.vals[0] = -1 // sender reuses its buffer while the message is held
	w.RunPhase(func(rank int) {})
	got := false
	w.RunPhase(func(rank int) {
		if rank == 1 {
			in := w.Inbox(1)
			if len(in) != 1 {
				t.Fatalf("got %d messages", len(in))
			}
			pl := in[0].Payload.(*heldBuf)
			if pl == buf || pl.vals[0] != 42 {
				t.Errorf("held payload aliased sender buffer: %g", pl.vals[0])
			}
			got = true
		}
	})
	if !got {
		t.Fatal("delivery phase did not run")
	}
}

// TestNilHoldKeepsPayloadByReference: without a hold function a delayed
// message lands with the payload it was sent with, rewrites included.
func TestNilHoldKeepsPayloadByReference(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 3, DelayProb: 1, DelayMax: 1}, nil)
	buf := &heldBuf{vals: []float64{42}}
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, buf)
		}
	})
	buf.vals[0] = -1
	w.RunPhase(func(rank int) {})
	got := false
	w.RunPhase(func(rank int) {
		if rank == 1 {
			in := w.Inbox(1)
			if len(in) != 1 {
				t.Fatalf("got %d messages", len(in))
			}
			if pl := in[0].Payload.(*heldBuf); pl != buf || pl.vals[0] != -1 {
				t.Errorf("held payload %p (%g), want the sender's %p by reference", pl, pl.vals[0], buf)
			}
			got = true
		}
	})
	if !got {
		t.Fatal("delivery phase did not run")
	}
}

// chaosPlan is the heavy delay plan of the determinism and engine
// equivalence tests: half of all messages held back by up to four phases.
func chaosPlan(seed int64) *FaultPlan {
	return DelayPlan(seed, 0.5, 4)
}

// chaosRun drives a fixed communication pattern under a chaos plan and
// returns per-rank observed message streams and the final stats.
func chaosRun(seed int64, parallel bool) ([][]int, Stats) {
	const P = 8
	w := NewWorld(P, DefaultCostModel())
	w.Parallel = parallel
	w.InstallFaults(chaosPlan(seed), nil)
	got := make([][]int, P)
	for phase := 0; phase < 12; phase++ {
		w.RunPhase(func(rank int) {
			for _, m := range w.Inbox(rank) {
				got[rank] = append(got[rank], int(m.From)*10000+m.Payload.(int))
			}
			h := seed + int64(phase*131) + int64(rank*17)
			for k := 0; k < int(h%4+3)%4; k++ {
				to := int((h + int64(k)*29) % P)
				if to < 0 {
					to += P
				}
				w.Put(rank, to, Tag(k%2), k*8, phase*10+k)
				w.Charge(rank, float64(rank+k))
			}
		})
	}
	return got, w.Stats()
}

// TestChaosDeterministicAcrossEngines: identical FaultPlan seed ⇒ identical
// observed message streams and stats with phases inline and on the pool at
// every width, and across repeated runs.
func TestChaosDeterministicAcrossEngines(t *testing.T) {
	atWidths(t, true, func(t *testing.T) {
		f := func(seed int64) bool {
			seqGot, seqStats := chaosRun(seed, false)
			for _, parallel := range []bool{false, true} {
				got, stats := chaosRun(seed, parallel)
				if stats != seqStats || !reflect.DeepEqual(got, seqGot) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

func TestChaosActuallyInjects(t *testing.T) {
	_, st := chaosRun(99, false)
	if st.DelayedMsgs == 0 {
		t.Errorf("plan injected nothing: %+v", st)
	}
}

func TestInstallNilFaultsRemovesPlan(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, DelayProb: 1, DelayMax: 1}, nil)
	w.InstallFaults(nil, nil)
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, "on time")
		}
	})
	w.RunPhase(func(rank int) {
		if rank == 1 && len(w.Inbox(1)) != 1 {
			t.Error("message faulted after plan removal")
		}
	})
}

func TestCloseIdempotent(t *testing.T) {
	w := NewWorld(4, CostModel{})
	w.RunPhase(func(rank int) {})
	w.Close()
	w.Close()
	// The same after phases on the pool: Close twice must not panic or hang.
	wp := NewWorld(4, CostModel{})
	wp.Parallel = true
	wp.RunPhase(func(rank int) {})
	wp.Close()
	wp.Close()
}

func TestPutAfterCloseFailsLoudly(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.Close()
	defer func() {
		if r := recover(); r != ErrClosed {
			t.Errorf("recover() = %v, want ErrClosed", r)
		}
	}()
	w.Put(0, 1, TagSolve, 8, nil)
}

func TestRunPhaseAfterCloseFailsLoudly(t *testing.T) {
	w := NewWorld(4, CostModel{})
	w.Parallel = true
	w.RunPhase(func(rank int) {})
	w.Close()
	defer func() {
		if r := recover(); r != ErrClosed {
			t.Errorf("recover() = %v, want ErrClosed", r)
		}
	}()
	w.RunPhase(func(rank int) {})
}
