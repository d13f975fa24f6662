package rma

import (
	"reflect"
	"testing"
	"testing/quick"
)

// clonable is a payload with a buffer the sender reuses, as the dmem
// payloads do.
type clonable struct {
	vals []float64
}

func (c *clonable) CloneMessage() any {
	return &clonable{vals: append([]float64(nil), c.vals...)}
}

func TestDelayFaultHoldsMessageForExtraPhases(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, DelayProb: 1, DelayMax: 1})
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

func TestDelayedPayloadIsCloned(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 3, DelayProb: 1, DelayMax: 1})
	buf := &clonable{vals: []float64{42}}
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
			pl := in[0].Payload.(*clonable)
			if pl.vals[0] != 42 {
				t.Errorf("held payload aliased sender buffer: %g", pl.vals[0])
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
	w.InstallFaults(chaosPlan(seed))
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
	w.InstallFaults(&FaultPlan{Seed: 1, DelayProb: 1, DelayMax: 1})
	w.InstallFaults(nil)
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
