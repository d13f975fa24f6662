package obs_test

import (
	"fmt"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/rma"
)

// The zero-overhead claim of the observability layer, pinned by
// TestObsAllocGate. Three steady-state operations are gated, all at zero
// allocations:
//
//   - DisabledPhase: one rma phase (ring exchange) with no tracer — the
//     permanent emit sites in the hot path must cost nothing when off.
//   - TracedPhase: the same phase with a Recorder installed — enabled
//     tracing is ring writes into preallocated buffers, not allocation.
//   - RecorderEmit: one direct Recorder.Emit.

type benchPayload struct {
	vals []float64
	norm float64
}

// phaseWorld builds a P-rank world running a two-neighbor ring exchange,
// the same shape as rma's own engine benchmark, with tr installed.
func phaseWorld(p int, tr *obs.Recorder) (*rma.World, func(rank int)) {
	w := rma.NewWorld(p, rma.DefaultCostModel())
	w.SetTracer(tr)
	payloads := make([][2]benchPayload, p)
	for r := range payloads {
		payloads[r][0].vals = make([]float64, 8)
		payloads[r][1].vals = make([]float64, 8)
	}
	phase := func(rank int) {
		sum := 0.0
		for _, m := range w.Inbox(rank) {
			sum += m.Payload.(*benchPayload).norm
		}
		for d := 0; d < 2; d++ {
			pl := &payloads[rank][d]
			pl.norm = sum + float64(rank+d)
			to := rank + 1
			if d == 1 {
				to = rank - 1 + p
			}
			w.Put(rank, to%p, rma.TagSolve, 8*len(pl.vals)+16, pl)
		}
		w.Charge(rank, 100)
	}
	return w, phase
}

func TestObsAllocGate(t *testing.T) {
	const p = 64
	wOff, phaseOff := phaseWorld(p, nil)
	// NewRecorderCap big enough that the rings never wrap mid-test; wrap
	// would not allocate either, but keep the measurement simple.
	rec := obs.NewRecorderCap(p, 4096)
	wOn, phaseOn := phaseWorld(p, rec)

	e := obs.Event{Kind: obs.KindPut, Rank: 3, A: 4, Tag: 1, I1: 80}
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"DisabledPhase", func() { wOff.RunPhase(phaseOff) }},
		{"TracedPhase", func() { wOn.RunPhase(phaseOn) }},
		{"RecorderEmit", func() { rec.Emit(e) }},
	} {
		op.f() // warm once outside the measurement
		if got := testing.AllocsPerRun(20, op.f); got != 0 {
			t.Errorf("%s allocates %.1f/op in steady state, want 0", op.name, got)
		}
	}
}

// BenchmarkObs measures the per-phase overhead of tracing: disabled
// (nil tracer) vs a live Recorder, plus the raw Emit cost.
func BenchmarkObs(b *testing.B) {
	for _, mode := range []string{"disabled", "traced"} {
		for _, p := range []int{64, 256} {
			b.Run(fmt.Sprintf("phase/%s/P=%d", mode, p), func(b *testing.B) {
				var rec *obs.Recorder
				if mode == "traced" {
					rec = obs.NewRecorderCap(p, 1024)
				}
				w, phase := phaseWorld(p, rec)
				w.RunPhase(phase)
				w.RunPhase(phase)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunPhase(phase)
				}
			})
		}
	}
	b.Run("emit", func(b *testing.B) {
		rec := obs.NewRecorderCap(4, 1024)
		e := obs.Event{Kind: obs.KindPut, Rank: 1, A: 2, Tag: 1, I1: 80}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Emit(e)
		}
	})
}
