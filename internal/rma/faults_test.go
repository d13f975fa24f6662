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

func TestDupFaultLandsTwiceFlagged(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, DupProb: 1})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, "x")
		}
	})
	w.RunPhase(func(rank int) {
		if rank != 1 {
			return
		}
		in := w.Inbox(1)
		if len(in) != 2 {
			t.Fatalf("got %d landings, want 2", len(in))
		}
		if in[0].Dup || !in[1].Dup {
			t.Errorf("dup flags = %v/%v, want false/true", in[0].Dup, in[1].Dup)
		}
	})
	st := w.Stats()
	if st.DupMsgs != 1 || st.TotalMsgs() != 1 || st.Delivered != 2 {
		t.Errorf("stats: dup %d total %d delivered %d", st.DupMsgs, st.TotalMsgs(), st.Delivered)
	}
}

func TestPausedRankAccumulatesWindow(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, Pauses: []Pause{{Rank: 1, From: 1, To: 3}}})
	ran := make([]int, 4) // how many phases rank 1 executed, per phase index
	for phase := 0; phase < 4; phase++ {
		if w.FaultsQuiescent() != (phase >= 3) {
			t.Errorf("phase %d: FaultsQuiescent = %v", phase, w.FaultsQuiescent())
		}
		w.RunPhase(func(rank int) {
			if rank == 0 {
				w.Put(0, 1, TagSolve, 8, phase)
			}
			if rank == 1 {
				ran[phase]++
			}
		})
	}
	if ran[0] != 1 || ran[1] != 0 || ran[2] != 0 || ran[3] != 1 {
		t.Errorf("rank 1 execution per phase = %v, want [1 0 0 1]", ran)
	}
	// Phases 0-2 each landed one message; rank 1 read none of them while
	// paused, so all three must still be in its window for phase 4.
	w.RunPhase(func(rank int) {
		if rank != 1 {
			return
		}
		in := w.Inbox(1)
		if len(in) != 1 || in[0].Payload.(int) != 3 {
			// The phase-3 epoch (first after resume) consumed phases 0-2's
			// accumulated messages; this phase sees only phase 3's put.
			t.Errorf("post-resume inbox = %+v", in)
		}
	})
	if st := w.Stats(); st.PausedRankPhases != 2 {
		t.Errorf("PausedRankPhases = %d, want 2", st.PausedRankPhases)
	}
}

func TestPausedWindowRetainsAcrossPause(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.InstallFaults(&FaultPlan{Seed: 1, Pauses: []Pause{{Rank: 1, From: 1, To: 3}}})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 8, 100)
		}
	})
	w.RunPhase(func(rank int) {}) // rank 1 paused
	w.RunPhase(func(rank int) {}) // rank 1 paused
	w.RunPhase(func(rank int) {   // rank 1 resumes and reads everything landed
		if rank == 1 {
			if n := len(w.Inbox(1)); n != 1 {
				t.Errorf("resumed rank sees %d messages, want 1", n)
			}
		}
	})
}

// TestPausedWindowOwnsItsPayloads: a window retained across a pause must not
// alias the senders' send buffers. Ranks send from persistent buffers in
// even phases and read in odd ones (the two-epoch shape of Block Jacobi);
// rank 1 is paused over its phase-1 read and the senders' phase-2 rewrite,
// so when it resumes in phase 3 it must still see the values staged in
// phase 0, followed by the phase-2 ones — at every width.
func TestPausedWindowOwnsItsPayloads(t *testing.T) {
	const p = 4
	for _, mode := range []string{"seq", "pool"} {
		t.Run(mode, func(t *testing.T) {
			w := NewWorld(p, CostModel{})
			if mode == "pool" {
				setWidth(t, 4)
				w.Parallel = true
			}
			w.InstallFaults(&FaultPlan{Seed: 1, Pauses: []Pause{{Rank: 1, From: 1, To: 3}}})
			bufs := make([][2]clonable, p)
			for r := range bufs {
				bufs[r][0].vals = make([]float64, 1)
				bufs[r][1].vals = make([]float64, 1)
			}
			var got []float64 // rank 1's reads; only rank 1's phase function appends
			fs := make([]func(int), 4)
			for k := range fs {
				fs[k] = func(rank int) {
					if rank == 1 {
						for _, m := range w.Inbox(1) {
							got = append(got, m.Payload.(*clonable).vals[0])
						}
					}
					if k%2 != 0 {
						return
					}
					for d, to := range [2]int{(rank + 1) % p, (rank + p - 1) % p} {
						bufs[rank][d].vals[0] = float64(100*k + rank)
						w.Put(rank, to, TagSolve, 8, &bufs[rank][d])
					}
				}
			}
			for _, f := range fs {
				w.RunPhase(f)
			}
			want := []float64{0, 2, 200, 202}
			if len(got) != len(want) {
				t.Fatalf("rank 1 read %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rank 1 read %v, want %v (retained window aliases a rewritten send buffer)", got, want)
				}
			}
		})
	}
}

func TestStragglerMultipliesCost(t *testing.T) {
	base := NewWorld(2, CostModel{Gamma: 1})
	base.RunPhase(func(rank int) { base.Charge(rank, 10) })
	slow := NewWorld(2, CostModel{Gamma: 1})
	slow.InstallFaults(&FaultPlan{Seed: 1, Stragglers: map[int]float64{1: 4}})
	slow.RunPhase(func(rank int) { slow.Charge(rank, 10) })
	if got, want := slow.Stats().SimTime, 4*base.Stats().SimTime; got != want {
		t.Errorf("straggler SimTime = %g, want %g", got, want)
	}
}

// chaosPlan is the everything-on plan used by the determinism and engine
// equivalence tests.
func chaosPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed:        seed,
		DelayProb:   0.3,
		DelayMax:    3,
		DupProb:     0.2,
		ReorderProb: 0.5,
		Stragglers:  map[int]float64{2: 3},
		Pauses:      []Pause{{Rank: 1, From: 2, To: 5}, {Rank: 5, From: 7, To: 9}},
	}
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
				v := int(m.From)*10000 + m.Payload.(int)
				if m.Dup {
					v = -v
				}
				got[rank] = append(got[rank], v)
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
	if st.DelayedMsgs == 0 || st.DupMsgs == 0 || st.ReorderedBatches == 0 || st.PausedRankPhases == 0 {
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
