package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// put builds a minimal KindPut event; seq rides in I1 so tests can check
// retention order after ring wrap.
func put(rank int32, seq int64) Event {
	return Event{Kind: KindPut, Rank: rank, A: (rank + 1) % 2, I1: seq}
}

func decision(rank int32, relaxed bool) Event {
	e := Event{Kind: KindDecision, Rank: rank}
	if relaxed {
		e.Flag = FlagRelaxed
	}
	return e
}

// TestNilSafety: a nil *Recorder is a complete no-op, and both
// exporters still write valid (empty) documents. This is the disabled
// path every producer relies on.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Emit(put(0, 1)) // must not panic
	r.SetLabel("x")
	if r.Dropped() != 0 || r.Events() != nil {
		t.Errorf("nil recorder leaks state: dropped=%d events=%v", r.Dropped(), r.Events())
	}
	if got := r.Tally(0); got != (RankTally{}) {
		t.Errorf("nil recorder tally: %+v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil trace not valid JSON: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Errorf("nil metrics output: %q", buf.String())
	}
}

// TestRingWrap: the ring keeps the newest capacity events, counts the
// dropped prefix, and the tallies stay exact regardless.
func TestRingWrap(t *testing.T) {
	r := NewRecorderCap(1, 16)
	const total = 41
	for i := int64(0); i < total; i++ {
		r.Emit(put(0, i))
	}
	ev := r.Events()
	if len(ev) != 16 {
		t.Fatalf("retained %d events, want 16", len(ev))
	}
	for i, e := range ev {
		if want := int64(total - 16 + i); e.I1 != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first unwrap broken)", i, e.I1, want)
		}
	}
	if got := r.Dropped(); got != total-16 {
		t.Errorf("dropped %d, want %d", got, total-16)
	}
	if tl := r.Tally(0); tl.Puts != total {
		t.Errorf("tally dropped events with the ring: %d puts, want %d", tl.Puts, total)
	}
}

// TestDefaultRingBounded: NewRecorder's allocation is bounded by one event
// budget whatever P is. Up to 256 ranks every ring keeps DefaultShardCap
// slots (every committed table, test and golden trace is below that);
// beyond, the rank rings together hold the budget rounded down to a
// multiple of P — at P = 4096, where the uncapped default would allocate
// 1.4 GB, no more than the budget plus the control shard.
func TestDefaultRingBounded(t *testing.T) {
	for _, p := range []int{0, 1, 64, 256} {
		if got := defaultShardCap(p); got != DefaultShardCap {
			t.Errorf("P=%d: %d slots per rank, want DefaultShardCap", p, got)
		}
	}
	for _, p := range []int{257, 2048, 4096, 8192, 1 << 20} {
		if total := p * defaultShardCap(p); total > eventBudget || total <= eventBudget-p {
			t.Errorf("P=%d: %d rank slots in total, want the budget of %d rounded down to a multiple of P", p, total, eventBudget)
		}
	}
	// Above 2¹⁶ ranks the rings hold fewer than NewRecorderCap's floor of
	// 16 slots; P = 2¹⁷ used to hold 2²¹ rank slots, twice the budget.
	for _, p := range []int{4096, 1 << 17} {
		r := NewRecorder(p)
		slots := 0
		for i := range r.shards {
			slots += len(r.shards[i].buf)
		}
		if perRank := eventBudget / p; slots != eventBudget+4*perRank {
			t.Errorf("NewRecorder(%d) holds %d slots, want the budget of %d plus a control shard of %d", p, slots, eventBudget, 4*perRank)
		}
	}
}

// TestShardRouting: per-rank events land on their rank's shard, control
// and out-of-range ranks on the control shard, and Events returns the
// canonical export order (ranks ascending, control last).
func TestShardRouting(t *testing.T) {
	r := NewRecorderCap(2, 16)
	r.Emit(put(1, 10))
	r.Emit(Event{Kind: KindStep, Rank: ControlRank, Step: 0, V1: 1})
	r.Emit(put(0, 20))
	r.Emit(put(99, 30)) // out of range: retained on the control shard
	r.Emit(put(0, 21))

	ev := r.Events()
	want := []struct {
		rank int32
		seq  int64
	}{{0, 20}, {0, 21}, {1, 10}, {-1, 0}, {99, 30}}
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d", len(ev), len(want))
	}
	for i, w := range want {
		if ev[i].Rank != w.rank || ev[i].I1 != w.seq {
			t.Errorf("event %d = rank %d seq %d, want rank %d seq %d",
				i, ev[i].Rank, ev[i].I1, w.rank, w.seq)
		}
	}
	// Out-of-range ranks must not corrupt the per-rank tallies.
	if r.Tally(0).Puts != 2 || r.Tally(1).Puts != 1 {
		t.Errorf("tallies: rank0=%d rank1=%d", r.Tally(0).Puts, r.Tally(1).Puts)
	}
	if got := r.Tally(99); got != (RankTally{}) {
		t.Errorf("out-of-range tally: %+v", got)
	}
}

// TestStallTally: hold streaks are bucketed by power of two on the relax
// that ends them, MaxStall tracks the longest, and Tally folds an ongoing
// streak without mutating the live counters.
func TestStallTally(t *testing.T) {
	r := NewRecorderCap(1, 16)
	for i := 0; i < 3; i++ {
		r.Emit(decision(0, false))
	}
	r.Emit(decision(0, true))
	r.Emit(decision(0, false))
	r.Emit(decision(0, true))

	tl := r.Tally(0)
	if tl.Relaxed != 2 || tl.Held != 4 || tl.MaxStall != 3 {
		t.Fatalf("relaxed=%d held=%d max=%d, want 2/4/3", tl.Relaxed, tl.Held, tl.MaxStall)
	}
	// Streak of 3 → bucket 1 ([2,3]); streak of 1 → bucket 0.
	if tl.Stalls[0] != 1 || tl.Stalls[1] != 1 {
		t.Fatalf("histogram %v, want one streak in bucket 0 and one in bucket 1", tl.Stalls)
	}

	// An ongoing streak is folded into the returned copy only.
	r.Emit(decision(0, false))
	first := r.Tally(0)
	if first.Stalls[0] != 2 {
		t.Errorf("ongoing streak not folded: %v", first.Stalls)
	}
	if again := r.Tally(0); again != first {
		t.Errorf("Tally mutated live counters: %+v vs %+v", again, first)
	}
}

// sampleRecorder builds a recorder with at least one event of every kind,
// for exporter tests.
func sampleRecorder() *Recorder {
	r := NewRecorderCap(2, 32)
	r.SetLabel("unit ds")
	r.Emit(Event{Kind: KindPut, Rank: 0, A: 1, Tag: 1, I1: 64, Ts: 0.5, Phase: 1})
	r.Emit(Event{Kind: KindDeliver, Rank: 1, A: 0, Tag: 1, I1: 64, Ts: 0.5, Phase: 1})
	r.Emit(Event{Kind: KindRankCost, Rank: 0, Ts: 1, Dur: 0.5, V1: 0.2, V2: 0.2, V3: 0.1, A: 1, B: 1, I1: 64, I2: 64, Phase: 1})
	r.Emit(Event{Kind: KindPhase, Rank: ControlRank, Ts: 1, Dur: 0.5, I1: 2, Phase: 1})
	r.Emit(decision(0, true))
	r.Emit(decision(1, false))
	r.Emit(Event{Kind: KindResSend, Rank: 0, A: -1, V1: 2.5, V2: 1.5, Ts: 1, Step: 1, Flag: FlagRefresh})
	r.Emit(Event{Kind: KindStep, Rank: ControlRank, Step: 1, V1: 0.25, V2: 1, A: 1, I1: 3, I2: 192, Ts: 1})
	r.Emit(Event{Kind: KindWatchdog, Rank: ControlRank, Step: 1, A: 1, Flag: FlagWatchdogIdle, Ts: 1})
	r.Emit(Event{Kind: KindFault, Rank: ControlRank, A: 0, B: 1, Flag: FlagFaultDelayed, Ts: 1, Phase: 1})
	return r
}

// TestWriteTraceShape: the export is valid JSON in the trace-event Object
// Format, names every track, carries every recorded event, and is
// byte-stable across repeated exports.
func TestWriteTraceShape(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Run string `json:"run"`
		} `json:"otherData"`
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData.Run != "unit ds" {
		t.Errorf("run label %q", doc.OtherData.Run)
	}
	tracks := map[string]bool{}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Args["name"].(string)] = true
		}
		counts[e.Ph]++
	}
	for _, want := range []string{"rank 0", "rank 1", "runtime"} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, tracks)
		}
	}
	// 2 slices (phase + rank cost), 2 counter samples from the step, and
	// the rest instants.
	if counts["X"] != 2 || counts["C"] != 2 || counts["i"] == 0 {
		t.Errorf("event shape counts: %v", counts)
	}

	var again bytes.Buffer
	if err := r.WriteTrace(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("repeated export is not byte-identical")
	}
}

// TestWriteMetricsShape: the summary carries the header tables and the
// exact aggregate counts.
func TestWriteMetricsShape(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# obs metrics — unit ds",
		"ranks 2  steps 1  msgs 1",
		"relax decisions 1/2 (active fraction 0.5000)",
		"# per-step",
		"# per-rank",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestJSONFloat: the JSON float formatter is shortest-round-trip and
// clamps the values JSON cannot represent.
func TestJSONFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{1e21, "1e+21"},
		{math.NaN(), "0"},
		{math.Inf(1), "0"},
		{math.Inf(-1), "0"},
	} {
		if got := jf(tc.in); got != tc.want {
			t.Errorf("jf(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
