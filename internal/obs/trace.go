package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Chrome trace-event export. The output is the JSON Object Format of the
// trace-event spec — {"traceEvents": [...], ...} — which loads directly in
// Perfetto and chrome://tracing. Mapping:
//
//   - pid 1 is the whole simulated job; tid = rank for rank tracks and
//     tid = P (one past the last rank) for the "runtime" control track,
//     each named by an "M" thread_name metadata event.
//   - Timestamps are simulated microseconds: the monotone α-β-γ clock in
//     seconds × 1e6. A phase or rank-cost slice becomes an "X" complete
//     event with its charged duration.
//   - Puts, deliveries, decisions, residual sends, watchdog and fault
//     actions become "i" instant events with their details in args.
//   - Each KindStep also becomes a "C" counter event ("resnorm"), so the
//     global residual-norm decay is plottable alongside the timeline.
//
// The writer is hand-rolled fmt.Fprintf, not encoding/json: the event
// stream must be byte-stable across runs and engines for the golden test,
// and encoding/json's map-key ordering and float formatting leave that to
// chance. Floats are formatted with strconv 'g' shortest-round-trip, so
// equal inputs always produce equal bytes.

// trackName returns the display name for a shard index.
func (r *Recorder) trackName(i int) string {
	if i == r.ranks {
		return "runtime"
	}
	return fmt.Sprintf("rank %d", i)
}

// jf formats a float for JSON: shortest round-trip decimal, with the
// non-finite values JSON cannot carry clamped to 0.
func jf(v float64) string {
	if v != v || v > 1.79e308 || v < -1.79e308 {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// usec converts simulated seconds to trace microseconds.
func usec(s float64) string { return jf(s * 1e6) }

var kindNames = [numKinds]string{
	KindPhase:     "phase",
	KindRankCost:  "cost",
	KindPut:       "put",
	KindDeliver:   "deliver",
	KindDecision:  "decision",
	KindResSend:   "res_send",
	KindStep:      "step",
	KindWatchdog:  "watchdog",
	KindFault:     "fault",
	KindActiveSet: "active_set",
}

var faultNames = [...]string{
	FlagFaultDelayed: "delayed",
}

// WriteTrace writes the retained events as Chrome trace-event JSON. The
// byte output is a pure function of the event stream: identical runs (and
// both world engines) produce identical files.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"southwell/internal/obs\"")
	if r.method != "" {
		fmt.Fprintf(bw, ",\"run\":%q", r.method)
	}
	fmt.Fprintf(bw, "},\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		fmt.Fprintf(bw, format, args...)
	}
	// Process + thread metadata so Perfetto labels the tracks. Sort order
	// keeps ranks ascending with the runtime track last.
	emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"southwell sim"}}`)
	for i := 0; i <= r.ranks; i++ {
		emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, i, r.trackName(i))
		emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, i, i)
	}
	var scratch []Event
	for i := range r.shards {
		scratch = r.shards[i].events(scratch[:0])
		for _, e := range scratch {
			writeEvent(emit, i, e)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

func writeEvent(emit func(string, ...any), tid int, e Event) {
	name := "event"
	if e.Kind < numKinds && kindNames[e.Kind] != "" {
		name = kindNames[e.Kind]
	}
	switch e.Kind {
	case KindPhase:
		emit(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":"phase %d","cat":"phase","args":{"phase":%d,"landings":%d,"cost":%s}}`,
			tid, usec(e.Ts-e.Dur), usec(e.Dur), e.Phase, e.Phase, e.I1, jf(e.Dur))
	case KindRankCost:
		emit(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":"cost","cat":"cost","args":{"phase":%d,"flops_cost":%s,"msg_cost":%s,"byte_cost":%s,"sent":%d,"landed":%d,"sent_bytes":%d,"landed_bytes":%d}}`,
			tid, usec(e.Ts-e.Dur), usec(e.Dur), e.Phase, jf(e.V1), jf(e.V2), jf(e.V3), e.A, e.B, e.I1, e.I2)
	case KindPut:
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":"put","cat":"msg","args":{"to":%d,"tag":%d,"bytes":%d,"phase":%d}}`,
			tid, usec(e.Ts), e.A, e.Tag, e.I1, e.Phase)
	case KindDeliver:
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":"deliver","cat":"msg","args":{"from":%d,"tag":%d,"bytes":%d,"phase":%d}}`,
			tid, usec(e.Ts), e.A, e.Tag, e.I1, e.Phase)
	case KindDecision:
		verdict := "hold"
		if e.Flag&FlagRelaxed != 0 {
			verdict = "relax"
		}
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":%q,"cat":"decision","args":{"step":%d,"norm":%s,"max_gamma":%s}}`,
			tid, usec(e.Ts), verdict, e.Step, jf(e.V1), jf(e.V2))
	case KindResSend:
		to := strconv.Itoa(int(e.A))
		if e.A < 0 {
			to = `"all"`
		}
		refresh := ""
		if e.Flag&FlagRefresh != 0 {
			refresh = `,"refresh":true`
		}
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":"res_send","cat":"residual","args":{"step":%d,"to":%s,"trigger":%s,"norm":%s%s}}`,
			tid, usec(e.Ts), e.Step, to, jf(e.V1), jf(e.V2), refresh)
	case KindStep:
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"g","name":"step %d","cat":"step","args":{"step":%d,"resnorm":%s,"relaxed":%d,"msgs":%d,"bytes":%d}}`,
			tid, usec(e.Ts), e.Step, e.Step, jf(e.V1), e.A, e.I1, e.I2)
		emit(`{"ph":"C","pid":1,"tid":%d,"ts":%s,"name":"resnorm","args":{"resnorm":%s}}`,
			tid, usec(e.Ts), jf(e.V1))
		emit(`{"ph":"C","pid":1,"tid":%d,"ts":%s,"name":"active ranks","args":{"relaxed":%d}}`,
			tid, usec(e.Ts), e.A)
	case KindActiveSet:
		emit(`{"ph":"C","pid":1,"tid":%d,"ts":%s,"name":"active set","args":{"executing":%d,"skipped":%d}}`,
			tid, usec(e.Ts), e.A, e.B)
		emit(`{"ph":"C","pid":1,"tid":%d,"ts":%s,"name":"skip rate","args":{"rate":%s}}`,
			tid, usec(e.Ts), jf(e.V1))
	case KindWatchdog:
		verdict := "idle"
		if e.Flag == FlagWatchdogStop {
			verdict = "stop"
		}
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"g","name":"watchdog","cat":"watchdog","args":{"step":%d,"verdict":%q,"idle_steps":%d}}`,
			tid, usec(e.Ts), e.Step, verdict, e.A)
	case KindFault:
		kind := "fault"
		if int(e.Flag) < len(faultNames) && faultNames[e.Flag] != "" {
			kind = faultNames[e.Flag]
		}
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"g","name":"fault","cat":"fault","args":{"kind":%q,"from":%d,"to":%d,"phase":%d}}`,
			tid, usec(e.Ts), kind, e.A, e.B, e.Phase)
	default:
		emit(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":%q,"cat":"other","args":{"phase":%d}}`,
			tid, usec(e.Ts), name, e.Phase)
	}
}
