package dmem

import "southwell/internal/obs"

// Algorithm-level trace hooks. Each is called from a rank's phase function
// on every step, traced or not, so the Tracer() nil test is all that
// inlines into the caller; the emit runs out of line, only when tracing is
// on.

// traceDecision emits rank rs's relax/hold decision for the current step.
// Called from the rank's phase function, so it writes only its recorder
// shard (the obs.Recorder concurrency contract); the max-Γ scan runs only
// when tracing is on.
func traceDecision(rs *rankState, relaxed bool) {
	if rs.st.w.Tracer() != nil {
		emitDecision(rs, relaxed)
	}
}

func emitDecision(rs *rankState, relaxed bool) {
	w := rs.st.w
	maxG := 0.0
	for _, g := range rs.gamma {
		if g > maxG {
			maxG = g
		}
	}
	e := obs.Event{
		Kind:  obs.KindDecision,
		Rank:  rs.p,
		Step:  int32(rs.st.step),
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

// traceResSend emits an explicit residual update from rank rs toward
// neighbor rank `to` (-1 = all neighbors). trigger is the value that fired
// the send — Γ̃[j] for the deadlock-risk rule, the last announced norm for
// the Parallel Southwell broadcast.
func traceResSend(rs *rankState, to int, trigger float64, refresh bool) {
	if rs.st.w.Tracer() != nil {
		emitResSend(rs, to, trigger, refresh)
	}
}

func emitResSend(rs *rankState, to int, trigger float64, refresh bool) {
	w := rs.st.w
	e := obs.Event{
		Kind:  obs.KindResSend,
		Rank:  rs.p,
		Step:  int32(rs.st.step),
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
