package rma

import (
	"fmt"
	"testing"
)

// benchPayload stands in for a solver message body; a pointer to it crosses
// the simulated network so Put should not allocate for the payload itself.
type benchPayload struct {
	vals []float64
	norm float64
}

// runPhaseBench drives the engine with a neighbor-exchange pattern shaped
// like one Distributed Southwell phase: every rank writes to its two ring
// neighbors and reads its inbox from the previous phase.
func runPhaseBench(b *testing.B, p int) {
	b.Helper()
	w := NewWorld(p, DefaultCostModel())

	// Persistent per-(rank,direction) payloads, as the solvers keep them.
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
			w.Put(rank, to%p, TagSolve, 8*len(pl.vals)+16, pl)
		}
		w.Charge(rank, 100)
	}
	// Warm up buffers so steady-state allocation is what is measured.
	w.RunPhase(phase)
	w.RunPhase(phase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunPhase(phase)
	}
}

// runProbeBench is the end-to-end benchmark's rma probe in-tree: 4096 ranks,
// each Putting one 64-byte payload to each of its six ring neighbours at ±1,
// ±2 and ±3 and reading its inbox, every phase. It reports ns per message.
func runProbeBench(b *testing.B) {
	const p, fan = 4096, 6
	offsets := [fan]int{1, 2, 3, p - 1, p - 2, p - 3}
	payload := new([8]float64)
	w := NewWorld(p, DefaultCostModel())
	sink := make([]int, p)
	phase := func(rank int) {
		sink[rank] += len(w.Inbox(rank))
		for _, off := range offsets {
			w.Put(rank, (rank+off)%p, TagSolve, 64, payload)
		}
	}
	w.RunPhase(phase) // warm-up: the flat arrays grow once
	w.RunPhase(phase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunPhase(phase)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p*fan), "ns/msg")
}

func BenchmarkRunPhase(b *testing.B) {
	for _, p := range []int{256, 1024, 8192} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) { runPhaseBench(b, p) })
	}
	b.Run("probe/P=4096", runProbeBench)
}
