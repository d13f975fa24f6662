package dmem

import (
	"southwell/internal/obs"
	"southwell/internal/rma"
)

// Algorithm-level trace hooks. Each is called from a rank's phase function
// on every step, traced or not, so the Tracer() nil test is all that
// inlines into the caller; the emit runs out of line, only when tracing is
// on.

// traceDecision emits rank p's relax/hold decision for one step. Called
// from rank p's phase function, so it writes only p's recorder shard (the
// obs.Recorder concurrency contract); the max-Γ scan runs only when tracing
// is on.
func traceDecision(w *rma.World, step, p int, rs *rankState, relaxed bool) {
	if w.Tracer() != nil {
		emitDecision(w, step, p, rs, relaxed)
	}
}

func emitDecision(w *rma.World, step, p int, rs *rankState, relaxed bool) {
	maxG := 0.0
	for _, g := range rs.gamma {
		if g > maxG {
			maxG = g
		}
	}
	e := obs.Event{
		Kind:  obs.KindDecision,
		Rank:  int32(p),
		Step:  int32(step),
		V1:    rs.norm,
		V2:    maxG,
		Ts:    w.Now(),
		Phase: w.PhaseIndex(),
	}
	if relaxed {
		e.Flag = obs.FlagRelaxed
	}
	w.Tracer().Emit(e)
}

// traceResSend emits an explicit residual update from rank p toward
// neighbor rank `to` (-1 = all neighbors). trigger is the value that fired
// the send — Γ̃[j] for the deadlock-risk rule, the announced norm for the
// Parallel Southwell broadcast.
func traceResSend(w *rma.World, step, p, to int, trigger float64, rs *rankState, refresh bool) {
	if w.Tracer() != nil {
		emitResSend(w, step, p, to, trigger, rs, refresh)
	}
}

func emitResSend(w *rma.World, step, p, to int, trigger float64, rs *rankState, refresh bool) {
	e := obs.Event{
		Kind:  obs.KindResSend,
		Rank:  int32(p),
		Step:  int32(step),
		A:     int32(to),
		V1:    trigger,
		V2:    rs.norm,
		Ts:    w.Now(),
		Phase: w.PhaseIndex(),
	}
	if refresh {
		e.Flag = obs.FlagRefresh
	}
	w.Tracer().Emit(e)
}
