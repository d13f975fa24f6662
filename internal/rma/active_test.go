package rma

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/parallel"
)

// activeWorld builds a world plus the pieces of an active-subset ring
// exchange: the phase body (sends to both ring neighbors, reads the
// window), a membership mask with one rank in `stride` active, and the
// per-rank idle charge a skipped rank must still pay. Payloads rotate
// through three buffers by phase, so at stride 1 a rank reads what its
// neighbor wrote last phase while the neighbor writes another buffer. The
// real methods alternate two; the third lets a message held back one
// boundary (the delay gate's plan) be read while its sender writes a buffer
// other than the one it points into, since the gate's hold copies nothing.
func activeWorld(p, stride int, parallel bool) (*World, func(int), []bool, []float64) {
	w := NewWorld(p, DefaultCostModel())
	w.Parallel = parallel
	payloads := make([][3][2]benchPayload, p)
	for r := range payloads {
		for par := range payloads[r] {
			for d := range payloads[r][par] {
				payloads[r][par][d].vals = make([]float64, 8)
			}
		}
	}
	phase := func(rank int) {
		sum := 0.0
		for _, m := range w.Inbox(rank) {
			sum += m.Payload.(*benchPayload).norm
		}
		for d := 0; d < 2; d++ {
			pl := &payloads[rank][w.PhaseIndex()%3][d]
			pl.norm = sum + float64(rank+d)
			to := rank + 1
			if d == 1 {
				to = rank - 1 + p
			}
			w.Put(rank, to%p, TagSolve, 8*len(pl.vals)+16, pl)
		}
		w.Charge(rank, 100)
	}
	active := make([]bool, p)
	idle := make([]float64, p)
	for r := range active {
		active[r] = r%stride == 0
		idle[r] = 5
	}
	return w, phase, active, idle
}

// maskList is the ascending member list of a mask — the actList form the
// dmem driver maintains incrementally.
func maskList(active []bool) []int32 {
	var l []int32
	for p, in := range active {
		if in {
			l = append(l, int32(p))
		}
	}
	return l
}

// controlTrack returns the run-level events a recorder retained.
func controlTrack(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Rank == obs.ControlRank {
			out = append(out, e)
		}
	}
	return out
}

// TestRunPhaseActiveMatchesRunPhase is the runtime half of the active-set
// bit-identity story: RunPhaseActive over a mask must leave the world in
// exactly the state of a dense RunPhase whose body branches on the same
// mask and charges idle[p] for skipped ranks — same stats, same simulated
// clock, same landed messages. Checked inline and at every pool width, and
// over everything the boundary overlays: nothing, a tracer (whose control
// track — phase maxima, landings, fault actions — must then agree event for
// event), a delay plan, and both.
func TestRunPhaseActiveMatchesRunPhase(t *testing.T) {
	const p, stride, rounds = 64, 4, 5
	plan := chaosPlan(7)
	for _, parallel := range []bool{false, true} {
		for _, ov := range []struct {
			name   string
			traced bool
			faults *FaultPlan
		}{{"list", false, nil}, {"tracer", true, nil}, {"plan", false, plan}, {"tracer+plan", true, plan}} {
			name := "seq/" + ov.name
			if parallel {
				name = "pool/" + ov.name
			}
			t.Run(name, func(t *testing.T) {
				atWidths(t, parallel, func(t *testing.T) {
					wa, fa, active, idle := activeWorld(p, stride, parallel)
					wd, fd, _, _ := activeWorld(p, stride, parallel)
					var ra, rd *obs.Recorder
					if ov.traced {
						ra, rd = obs.NewRecorderCap(p, 256), obs.NewRecorderCap(p, 256)
						wa.SetTracer(ra)
						wd.SetTracer(rd)
					}
					wa.InstallFaults(ov.faults, nil)
					wd.InstallFaults(ov.faults, nil)
					lst := maskList(active)
					dense := func(rank int) {
						if active[rank] {
							fd(rank)
						} else {
							wd.Charge(rank, idle[rank])
						}
					}
					for i := 0; i < rounds; i++ {
						wa.RunPhaseActive(active, lst, idle, fa)
						wd.RunPhase(dense)
						for r := 0; r < p; r++ {
							ia, id := wa.Inbox(r), wd.Inbox(r)
							if len(ia) != len(id) {
								t.Fatalf("round %d rank %d: %d landings active vs %d dense", i, r, len(ia), len(id))
							}
							for k := range ia {
								if ia[k].From != id[k].From || ia[k].Tag != id[k].Tag {
									t.Fatalf("round %d rank %d landing %d differs", i, r, k)
								}
							}
						}
					}
					if sa, sd := wa.Stats(), wd.Stats(); sa != sd {
						t.Errorf("stats differ:\nactive %+v\ndense  %+v", sa, sd)
					}
					if ov.faults != nil && wa.Stats().DelayedMsgs == 0 {
						t.Error("the plan held no message back: it missed the run")
					}
					if ca, cd := controlTrack(ra), controlTrack(rd); !reflect.DeepEqual(ca, cd) {
						t.Errorf("control tracks differ: %d events active, %d dense", len(ca), len(cd))
					} else if ov.traced && len(ca) < rounds {
						t.Errorf("control track holds %d events, want at least one per phase", len(ca))
					}
				})
			})
		}
	}
}

// TestChunkOfIsRunChunk: Put files a message in the staging array of the
// chunk runChunk runs its origin in, for every rank at every chunk count —
// the property that keeps a staging array to one goroutine and the arrays,
// read in chunk order, in ascending origin.
func TestChunkOfIsRunChunk(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 37, 64, 4096} {
		w := NewWorld(p, CostModel{})
		for c := 1; c <= min(p, 64); c++ {
			w.chunks = c
			for b := range c {
				for r := b * p / c; r < (b+1)*p/c; r++ {
					if got := w.chunkOf(r); got != b {
						t.Fatalf("P=%d, %d chunks: rank %d filed under chunk %d, runChunk runs it in %d", p, c, r, got, b)
					}
				}
			}
		}
	}
}

// TestChunkOfBeforeAndInPhase: between phases ChunkOf answers for the phase
// that would open now — one chunk inline, one per pool worker (at most P)
// on the pool — and in that phase each rank's answer is unchanged and is the
// chunk runChunk runs it in, so a caller can size scratch per chunk before a
// phase and pick its own inside one.
func TestChunkOfBeforeAndInPhase(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.Default().Workers())
	for _, width := range []int{1, 2, 4, 7} {
		parallel.SetDefaultWorkers(width)
		for _, p := range []int{1, 3, 64} {
			for _, par := range []bool{false, true} {
				w := NewWorld(p, CostModel{})
				w.Parallel = par
				want := 1
				if par {
					want = min(width, p)
				}
				if n := w.ChunkOf(p-1) + 1; n != want {
					t.Fatalf("width %d, P=%d, parallel=%v: %d chunks before the phase, want %d", width, p, par, n, want)
				}
				before, in := make([]int, p), make([]int, p)
				for r := range before {
					before[r] = w.ChunkOf(r)
				}
				w.RunPhase(func(r int) {
					in[r] = w.ChunkOf(r)
					if in[r] != w.chunkOf(r) {
						t.Errorf("rank %d: ChunkOf %d, Put's chunk %d", r, in[r], w.chunkOf(r))
					}
				})
				if !slices.Equal(before, in) {
					t.Fatalf("width %d, P=%d, parallel=%v: chunks before the phase %v, in it %v", width, p, par, before, in)
				}
			}
		}
	}
}

// TestRunPhaseActiveFullMaskIsRunPhase: with every rank active,
// RunPhaseActive must be RunPhase — the superset-safety anchor the dmem
// engine's correctness induction bottoms out on.
func TestRunPhaseActiveFullMaskIsRunPhase(t *testing.T) {
	const p = 32
	wa, fa, _, _ := activeWorld(p, 1, false)
	wd, fd, _, _ := activeWorld(p, 1, false)
	all := make([]bool, p)
	for r := range all {
		all[r] = true
	}
	lst := maskList(all)
	for i := 0; i < 4; i++ {
		wa.RunPhaseActive(all, lst, nil, fa)
		wd.RunPhase(fd)
	}
	if sa, sd := wa.Stats(), wd.Stats(); sa != sd {
		t.Errorf("stats differ:\nactive %+v\ndense  %+v", sa, sd)
	}
}

// TestActiveAllocGate is the executing guard of the runtime's promise that
// a steady-state phase allocates nothing, inline and at every pool width,
// for the shapes a phase takes:
//
//   - ActivePhase: one RunPhaseActive with 1 rank in 16 active. The member
//     list and idle vector ride on the world and a skipped rank is never
//     visited — the property that lets paper-scale runs step in O(active
//     work).
//   - TracedActivePhase: the same under a recorder (every emit is a ring
//     write, and the boundary's second cost walk allocates nothing).
//   - DelayActivePhase: the same under DelayPlan(…, 1, 1), which holds every
//     message back exactly one boundary: each boundary releases the last
//     phase's puts and captures this one's, so the held list and the list
//     of released messages keep their capacity. Its hold function copies
//     nothing, so what is measured is the call: a held message handed to
//     hold must not escape to the heap.
//   - DensePhase: one RunPhase whose body calls Inbox, Put and Charge on
//     every rank; staging and window buffers keep their capacity.
//   - DelayPhase: the dense phase under that plan.
//   - ResetThenPhase: World.Reset, then the dense phase — Reset keeps
//     every buffer's capacity, so a world rewound for its next run costs
//     no allocation.
func TestActiveAllocGate(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "seq"
		if parallel {
			name = "pool"
		}
		t.Run(name, func(t *testing.T) {
			atWidths(t, parallel, func(t *testing.T) {
				wa, fa, active, idle := activeWorld(256, 16, parallel)
				lst := maskList(active)
				wt, ft, _, _ := activeWorld(256, 16, parallel)
				wt.SetTracer(obs.NewRecorderCap(256, 64))
				wsa, fsa, _, _ := activeWorld(256, 16, parallel)
				keep := func(*Message) {}
				wsa.InstallFaults(DelayPlan(7, 1, 1), keep)
				wd, fd, _, _ := activeWorld(256, 1, parallel)
				ws, fs, _, _ := activeWorld(256, 1, parallel)
				ws.InstallFaults(DelayPlan(7, 1, 1), keep)
				for _, op := range []struct {
					name string
					f    func()
				}{
					{"ActivePhase", func() {
						wa.RunPhaseActive(active, lst, idle, fa)
						_ = wa.LiveInboxes() // what the dmem driver reads at every boundary
					}},
					{"TracedActivePhase", func() { wt.RunPhaseActive(active, lst, idle, ft) }},
					{"DelayActivePhase", func() { wsa.RunPhaseActive(active, lst, idle, fsa) }},
					{"DensePhase", func() { wd.RunPhase(fd) }},
					{"DelayPhase", func() { ws.RunPhase(fs) }},
					{"ResetThenPhase", func() {
						wd.Reset(wd.Model)
						wd.Parallel = parallel
						wd.RunPhase(fd)
					}},
				} {
					for i := 0; i < 4; i++ { // warm staging rings, window buffers, the region descriptor
						op.f()
					}
					if got := testing.AllocsPerRun(50, op.f); got != 0 {
						t.Errorf("%s allocates %.1f allocs/op in steady state, want 0", op.name, got)
					}
				}
			})
		})
	}
}

func BenchmarkActivePhases(b *testing.B) {
	for _, p := range []int{256, 1024, 8192} {
		for _, stride := range []int{1, 16} {
			b.Run(fmt.Sprintf("P=%d/active=1in%d", p, stride), func(b *testing.B) {
				w, f, active, idle := activeWorld(p, stride, false)
				lst := maskList(active)
				w.RunPhaseActive(active, lst, idle, f)
				w.RunPhaseActive(active, lst, idle, f)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunPhaseActive(active, lst, idle, f)
				}
			})
		}
	}
}
