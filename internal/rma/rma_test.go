package rma

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"southwell/internal/parallel"
)

// widths are the pool widths the width-invariance tests compare with
// width 1 (phases inline); they do not depend on the host's GOMAXPROCS.
var widths = []int{2, 4, 7}

// setWidth resizes the shared pool to k executor slots until the test ends.
func setWidth(t testing.TB, k int) {
	prev := parallel.Default().Workers()
	parallel.SetDefaultWorkers(k)
	t.Cleanup(func() { parallel.SetDefaultWorkers(prev) })
}

// atWidths runs f once when the worlds it builds run inline, and once per
// pool width — as a subtest, the shared pool resized — when they run on it.
func atWidths(t *testing.T, parallel bool, f func(t *testing.T)) {
	if !parallel {
		f(t)
		return
	}
	for _, k := range widths {
		t.Run(fmt.Sprintf("w%d", k), func(t *testing.T) {
			setWidth(t, k)
			f(t)
		})
	}
}

func TestPutDeliveredNextPhase(t *testing.T) {
	w := NewWorld(3, CostModel{})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 2, TagSolve, 8, "hello")
		}
		if len(w.Inbox(rank)) != 0 {
			t.Errorf("rank %d inbox nonempty before delivery", rank)
		}
	})
	w.RunPhase(func(rank int) {
		in := w.Inbox(rank)
		if rank == 2 {
			if len(in) != 1 || in[0].Payload.(string) != "hello" || in[0].From != 0 {
				t.Errorf("rank 2 inbox = %+v", in)
			}
		} else if len(in) != 0 {
			t.Errorf("rank %d got stray messages", rank)
		}
	})
	// Inboxes cleared at next boundary.
	w.RunPhase(func(rank int) {
		if len(w.Inbox(rank)) != 0 {
			t.Errorf("rank %d inbox not cleared", rank)
		}
	})
}

// TestDeliveryOrderDeterministic pins the invariant the boundary builds by
// construction and nothing re-checks at run time: a window holds its
// landings in ascending origin rank, one sender's in the order it put them —
// after a phase every rank ran and after one over a subset, inline and at
// every pool width.
func TestDeliveryOrderDeterministic(t *testing.T) {
	const p = 64
	for _, par := range []bool{false, true} {
		atWidths(t, par, func(t *testing.T) {
			w := NewWorld(p, CostModel{})
			w.Parallel = par
			send := func(rank int) {
				for seq := 0; seq < 2; seq++ {
					for _, d := range []int{1, 9, 30, p - 5} {
						w.Put(rank, (rank+d)%p, TagSolve, 0, seq)
					}
				}
			}
			check := func(boundary string, senders int) {
				t.Helper()
				landed := 0
				for r := 0; r < p; r++ {
					in := w.Inbox(r)
					landed += len(in)
					for i := 1; i < len(in); i++ {
						a, b := in[i-1], in[i]
						if b.From < a.From || b.From == a.From && b.Payload.(int) < a.Payload.(int) {
							t.Fatalf("%s: rank %d window out of order at %d: from %d seq %v after from %d seq %v",
								boundary, r, i, b.From, b.Payload, a.From, a.Payload)
						}
					}
				}
				if landed != senders*8 {
					t.Fatalf("%s: %d landings, want %d", boundary, landed, senders*8)
				}
			}
			w.RunPhase(send)
			check("after every rank", p)
			active := make([]bool, p)
			for r := range active {
				active[r] = r%3 != 1
			}
			list := maskList(active)
			w.RunPhaseActive(active, list, nil, send)
			check("after a subset", len(list))
		})
	}
}

// TestWorldStartsNoGoroutine: phases borrow the shared pool's workers, so
// a world's whole life — creation, parallel phases, Close — leaves the
// goroutine count where it was once that pool is warm.
func TestWorldStartsNoGoroutine(t *testing.T) {
	setWidth(t, 4)
	// Workers of the pools earlier tests resized away may still be exiting.
	before := -1
	for n := runtime.NumGoroutine(); n != before; n = runtime.NumGoroutine() {
		before = n
		time.Sleep(10 * time.Millisecond)
	}
	w := NewWorld(64, DefaultCostModel())
	w.Parallel = true
	for i := 0; i < 10; i++ {
		w.RunPhase(func(rank int) { w.Put(rank, (rank+1)%64, TagSolve, 8, nil) })
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("phase %d: %d goroutines, want %d", i, got, before)
		}
	}
	w.Close()
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("after Close: %d goroutines, want %d", got, before)
	}
}

func TestStatsTagsAndBytes(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 100, nil)
			w.Put(0, 1, TagResidual, 16, nil)
		}
	})
	s := w.Stats()
	if s.SolveMsgs != 1 || s.ResMsgs != 1 {
		t.Errorf("msgs = %d/%d", s.SolveMsgs, s.ResMsgs)
	}
	if s.SolveBytes != 100 || s.ResBytes != 16 {
		t.Errorf("bytes = %d/%d", s.SolveBytes, s.ResBytes)
	}
	if s.TotalMsgs() != 2 || s.CommCost(2) != 1 {
		t.Errorf("total=%d comm=%g", s.TotalMsgs(), s.CommCost(2))
	}
}

func TestCostModelMaxOverRanks(t *testing.T) {
	m := CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	w := NewWorld(3, m)
	w.RunPhase(func(rank int) {
		switch rank {
		case 0:
			w.Charge(0, 10) // cost 2*10 = 20
		case 1:
			w.Put(1, 2, TagSolve, 4, nil) // sender cost 1 + 2 = 3; receiver same
		}
	})
	if got := w.Stats().SimTime; got != 20 {
		t.Errorf("SimTime = %g, want 20 (max over ranks)", got)
	}
	w.RunPhase(func(rank int) { w.Charge(rank, 1) })
	if got := w.Stats().SimTime; got != 22 {
		t.Errorf("SimTime = %g, want 22", got)
	}
	// Receive side counts: a rank receiving many messages dominates.
	w2 := NewWorld(4, CostModel{Alpha: 1})
	w2.RunPhase(func(rank int) {
		if rank != 3 {
			w2.Put(rank, 3, TagSolve, 0, nil)
		}
	})
	if got := w2.Stats().SimTime; got != 3 {
		t.Errorf("h-relation SimTime = %g, want 3 (3 landings at rank 3)", got)
	}
	if w.Stats().Phases != 2 {
		t.Errorf("Phases = %d", w.Stats().Phases)
	}
}

// Message is two to a cache line; a field added to it shows up here first.
var _ [32]struct{} = [unsafe.Sizeof(Message{})]struct{}{}

// TestPutPanicsOutOfRange: Message stores ranks and sizes as int32, so Put
// (and NewWorld, for the rank count) refuse what would not fit, by name,
// instead of truncating it or failing inside append.
func TestPutPanicsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name, want string
		f          func(w *World)
	}{
		{"target", "rma: Put 0 -> 7: rank out of range (P=2)", func(w *World) { w.Put(0, 7, TagSolve, 0, nil) }},
		{"origin", "rma: Put -1 -> 1: rank out of range (P=2)", func(w *World) { w.Put(-1, 1, TagSolve, 0, nil) }},
		{"origin high", "rma: Put 2 -> 1: rank out of range (P=2)", func(w *World) { w.Put(2, 1, TagSolve, 0, nil) }},
		{"negative size", "rma: Put size -8 bytes out of range (0..2147483647)", func(w *World) { w.Put(0, 1, TagSolve, -8, nil) }},
		{"size", "rma: Put size 2147483648 bytes out of range (0..2147483647)", func(w *World) { w.Put(0, 1, TagSolve, math.MaxInt32+1, nil) }},
		{"ranks", "rma: NewWorld: 2147483648 ranks exceed the int32 rank range", func(*World) { NewWorld(math.MaxInt32+1, CostModel{}) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s: panic %v, want %q", c.name, got, c.want)
				}
			}()
			c.f(NewWorld(2, CostModel{}))
		}()
	}
}

// Property: phases run inline and on the pool at every width deliver
// identical message streams and identical stats for a randomized
// communication pattern.
func TestQuickEnginesEquivalent(t *testing.T) {
	run := func(seed int64, parallel bool) ([][]int, Stats) {
		w := NewWorld(8, DefaultCostModel())
		w.Parallel = parallel
		got := make([][]int, 8)
		for phase := 0; phase < 5; phase++ {
			w.RunPhase(func(rank int) {
				for _, m := range w.Inbox(rank) {
					got[rank] = append(got[rank], int(m.From)*1000+m.Payload.(int))
				}
				// Deterministic pseudo-random pattern per (seed, phase, rank).
				h := seed + int64(phase*131) + int64(rank*17)
				for k := 0; k < int(h%4+3)%4; k++ {
					to := int((h + int64(k)*29) % 8)
					if to < 0 {
						to += 8
					}
					w.Put(rank, to, Tag(k%2), k*8, phase*10+k)
					w.Charge(rank, float64(rank+k))
				}
			})
		}
		return got, w.Stats()
	}
	atWidths(t, true, func(t *testing.T) {
		f := func(seed int64) bool {
			seqGot, seqStats := run(seed, false)
			parGot, parStats := run(seed, true)
			return seqStats == parStats && reflect.DeepEqual(seqGot, parGot)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}
