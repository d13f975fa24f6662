package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Plain-text metrics export: a run summary, a per-step table (messages,
// bytes, active fraction), a per-rank table with the cost-term breakdown
// that attributes the SimTime winner, and a stall histogram. The tables
// are built from the incremental tallies and per-step records, which are
// exact even when the event rings wrapped. Like the trace exporter, the
// byte output is a pure function of the recorded stream, so it is stable
// across runs and engines.

// WriteMetrics writes the plain-text metrics summary.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# obs metrics: tracing disabled\n")
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# obs metrics")
	if r.method != "" {
		fmt.Fprintf(bw, " — %s", r.method)
	}
	fmt.Fprintf(bw, "\n")

	// Run summary from the exact tallies.
	var puts, putBytes, recvs, recvBytes, resSends, relaxed, held int64
	for p := 0; p < r.ranks; p++ {
		t := r.tally[p]
		puts += t.Puts
		putBytes += t.PutBytes
		recvs += t.Recvs
		recvBytes += t.RecvBytes
		resSends += t.ResSends
		relaxed += t.Relaxed
		held += t.Held
	}
	fmt.Fprintf(bw, "ranks %d  steps %d  msgs %d  bytes %d  landings %d  landed_bytes %d  res_sends %d\n",
		r.ranks, len(r.steps), puts, putBytes, recvs, recvBytes, resSends)
	if decisions := relaxed + held; decisions > 0 {
		fmt.Fprintf(bw, "relax decisions %d/%d (active fraction %.4f)\n",
			relaxed, decisions, float64(relaxed)/float64(decisions))
	}
	if n := len(r.steps); n > 0 {
		last := r.steps[n-1]
		fmt.Fprintf(bw, "final: step %d  resnorm %.6e  simtime %.6e\n", last.step, last.resNorm, last.simTime)
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(bw, "events dropped to ring wrap: %d (tallies and tables remain exact)\n", d)
	}

	// Per-step table. Message/byte columns are per-step deltas of the
	// cumulative counters carried on KindStep.
	if len(r.steps) > 0 {
		fmt.Fprintf(bw, "\n# per-step\n")
		fmt.Fprintf(bw, "%6s %14s %14s %8s %8s %10s %12s\n",
			"step", "resnorm", "simtime", "relaxed", "active", "msgs", "bytes")
		var prevMsgs, prevBytes int64
		for _, s := range r.steps {
			fmt.Fprintf(bw, "%6d %14.6e %14.6e %8d %8.4f %10d %12d\n",
				s.step, s.resNorm, s.simTime, s.relaxed,
				float64(s.relaxed)/float64(r.ranks), s.msgs-prevMsgs, s.bytes-prevBytes)
			prevMsgs, prevBytes = s.msgs, s.bytes
		}
	}

	// Active-set engine occupancy: per-step executing/skipped counts and
	// the mean skip rate. Empty for dense runs (no engine to observe).
	if len(r.actives) > 0 {
		var exec, skip int64
		for _, a := range r.actives {
			exec += int64(a.executing)
			skip += int64(a.skipped)
		}
		fmt.Fprintf(bw, "\n# active set (mean executing %.1f/%d, mean skip rate %.4f)\n",
			float64(exec)/float64(len(r.actives)), r.ranks,
			float64(skip)/float64(exec+skip))
		fmt.Fprintf(bw, "%6s %10s %10s %10s\n", "step", "executing", "skipped", "skip_rate")
		for _, a := range r.actives {
			fmt.Fprintf(bw, "%6d %10d %10d %10.4f\n",
				a.step, a.executing, a.skipped,
				float64(a.skipped)/float64(a.executing+a.skipped))
		}
	}

	// Per-rank table with the α-β-γ cost split: the rank whose `cost`
	// column is largest is the one that set SimTime most often.
	fmt.Fprintf(bw, "\n# per-rank\n")
	fmt.Fprintf(bw, "%6s %8s %8s %8s %8s %8s %12s %12s %12s %12s %10s\n",
		"rank", "relaxed", "held", "puts", "recvs", "res_snd", "flops_cost", "msg_cost", "byte_cost", "cost", "max_stall")
	for p := 0; p < r.ranks; p++ {
		t := r.Tally(p)
		fmt.Fprintf(bw, "%6d %8d %8d %8d %8d %8d %12.4e %12.4e %12.4e %12.4e %10d\n",
			p, t.Relaxed, t.Held, t.Puts, t.Recvs, t.ResSends,
			t.CostFlops, t.CostMsgs, t.CostBytes, t.Cost, t.MaxStall)
	}

	// Stall histogram: completed hold streaks across all ranks, bucketed
	// by power of two. Long tails here are the paper's deadlock-avoidance
	// story made visible.
	var hist [stallBuckets]int64
	any := false
	for p := 0; p < r.ranks; p++ {
		t := r.Tally(p)
		for b, c := range t.Stalls {
			hist[b] += c
			if c > 0 {
				any = true
			}
		}
	}
	if any {
		fmt.Fprintf(bw, "\n# stall histogram (hold-streak length → count)\n")
		for b, c := range hist {
			if c == 0 {
				continue
			}
			lo := int64(1) << b
			hi := lo*2 - 1
			if lo == hi {
				fmt.Fprintf(bw, "%6d        %8d\n", lo, c)
			} else {
				fmt.Fprintf(bw, "%6d-%-6d %8d\n", lo, hi, c)
			}
		}
	}
	return bw.Flush()
}
