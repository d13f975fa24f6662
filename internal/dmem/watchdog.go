package dmem

import (
	"southwell/internal/obs"
	"southwell/internal/rma"
)

// watchdog is the stagnation/deadlock detector shared by every method,
// generalizing the detector that used to live inside Piggyback2016. It
// watches each completed parallel step for an *idle* step — no rank
// relaxed, no message was staged, and no message landed — and stops the
// run when
//
//   - the step was idle and the fault layer is quiescent: the state
//     machine is deterministic, so every later step would repeat this one
//     exactly (on a perfect network this is precisely the 2016 piggyback
//     deadlock rule: a step without relaxations stages and lands nothing);
//   - or window consecutive steps were idle even though the fault layer
//     could still wake the run (a delayed message in flight): patience
//     bound, off on a perfect network where the first idle step already
//     trips the provable rule.
type watchdog struct {
	window        int
	idle          int   // consecutive idle steps
	lastSent      int64 // cumulative staged messages at the previous step
	lastDelivered int64 // cumulative landed messages at the previous step
}

func newWatchdog(cfg Config, w *rma.World) *watchdog {
	st := w.Stats()
	return &watchdog{
		window:        cfg.watchdogWindow(),
		lastSent:      st.TotalMsgs(),
		lastDelivered: st.Delivered,
	}
}

// observe inspects one completed parallel step and reports whether the run
// is stuck and should stop. Idle steps and the final verdict land on the
// trace's control track.
func (wd *watchdog) observe(w *rma.World, step, relaxedRanks int) bool {
	st := w.Stats()
	sent, delivered := st.TotalMsgs(), st.Delivered
	idle := relaxedRanks == 0 && sent == wd.lastSent && delivered == wd.lastDelivered
	wd.lastSent, wd.lastDelivered = sent, delivered
	if !idle {
		wd.idle = 0
		return false
	}
	wd.idle++
	stop := w.FaultsQuiescent() || wd.idle >= wd.window
	if tr := w.Tracer(); tr != nil {
		flag := obs.FlagWatchdogIdle
		if stop {
			flag = obs.FlagWatchdogStop
		}
		tr.Emit(obs.Event{
			Kind:  obs.KindWatchdog,
			Rank:  obs.ControlRank,
			Step:  int32(step),
			Flag:  flag,
			A:     int32(wd.idle),
			Ts:    w.Now(),
			Phase: w.PhaseIndex(),
		})
	}
	return stop
}

// deadlockAt marks a watchdog stop at step — unless the run had in fact
// converged to (numerical) zero and simply has nothing left to do. A NaN
// norm is no convergence: no rank wins a comparison against it, so the run
// stalls on it, and that stop is a deadlock too.
func (res *Result) deadlockAt(step int) {
	if !(res.Final().ResNorm <= 1e-14) {
		res.Deadlocked = true
		res.DeadlockStep = step
	}
}
