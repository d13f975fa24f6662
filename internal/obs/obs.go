// Package obs is the structured event-tracing and metrics subsystem of the
// simulated distributed runtime: the paper's entire argument is about where
// time and messages go (Table 3's communication breakdown, Table 4's
// per-step costs, Figure 8's scaling crossovers), and this package records
// a per-rank, per-phase timeline of exactly that — who relaxed, who sent an
// explicit residual update, and which rank's γ·flops + α·msgs + β·bytes
// term dominated a step — without perturbing a single bit of the results.
//
// The design follows the always-on-but-free discipline of HPC profilers
// (Score-P, HPCToolkit): the emit sites stay in the hot paths permanently
// and cost nothing when tracing is off. Three properties make that true:
//
//  1. Disabled is a nil check. Producers hold a *Recorder that is nil when
//     tracing is off; every emit site is `if tr != nil { ... }`. The
//     disabled path is pinned at 0 allocs/op by TestObsAllocGate.
//
//  2. Enabled is a ring write. The Recorder preallocates one fixed-size
//     ring buffer per simulated rank (plus one control shard for run-level
//     events); recording an Event copies a flat value struct into a slot —
//     no allocation, no locking. When a ring wraps, the oldest events are
//     overwritten and counted as dropped.
//
//  3. Determinism is structural. A rank's shard is written only by that
//     rank's phase function or by the driving goroutine between phases, and
//     rma runs every phase function on the driving goroutine, so each
//     shard's event sequence — and therefore every exported byte — is a
//     function of the run. Timestamps come from the simulated α-β-γ clock,
//     never the wall clock.
//
// Exporters: WriteTrace emits Chrome trace-event JSON (loads directly in
// Perfetto / chrome://tracing, one track per simulated rank plus a runtime
// track), and WriteMetrics emits a plain-text summary with per-step and
// per-rank tables and a stall histogram. See DESIGN.md §11.
package obs

import "math/bits"

// Kind classifies an Event. Per-kind field usage is documented on each
// constant; unused fields are zero.
type Kind uint8

const (
	// KindNone is the zero Kind; the Recorder ignores such events.
	KindNone Kind = iota
	// KindPhase (control shard): one completed access epoch. Dur is the
	// phase's simulated cost (the max over ranks), I1 the landings
	// delivered at its boundary.
	KindPhase
	// KindRankCost (rank shard): one rank's cost in one phase, emitted at
	// the phase boundary for every rank that ran or was written to and has
	// a nonzero flop or message count. A rank the step driver skipped whose
	// window stayed untouched logs nothing — neither this row nor a
	// KindDecision — although the phase's cost (KindPhase.Dur) still counts
	// its idle charge: a trace is O(active work), and an unpinned run's
	// export differs from the pinned run's by exactly those rows. Dur is the
	// rank's total charged time; V1, V2, V3 split it into the γ·flops, α·msgs, and β·bytes terms, so the
	// max-over-ranks SimTime winner is attributable. A and B count
	// messages sent and landed; I1 is bytes sent, I2 bytes landed.
	KindRankCost
	// KindPut (rank shard of the sender): one staged one-sided write.
	// A is the target rank, Tag the message tag, I1 the payload bytes.
	KindPut
	// KindDeliver (rank shard of the target): one landing. A is the origin
	// rank, Tag the message tag, I1 the payload bytes.
	KindDeliver
	// KindDecision (rank shard): a per-step relax/hold decision.
	// Flag&FlagRelaxed reports the outcome; V1 is the rank's exact norm,
	// V2 the largest neighbor-norm estimate Γ it compared against.
	KindDecision
	// KindResSend (rank shard): an explicit residual update was written —
	// the Γ̃ > ‖r_p‖ deadlock-risk trigger in Distributed Southwell, the
	// changed-norm announcement in Parallel Southwell. A is the target
	// rank (-1 = all neighbors); V1 is the trigger value (Γ̃, or the newly
	// announced norm), V2 the rank's current norm; Flag&FlagRefresh marks
	// a starvation re-announce under fault injection.
	KindResSend
	// KindStep (control shard): one completed parallel step. Step is the
	// step number, V1 the global residual norm, V2 the cumulative
	// simulated time, A the number of ranks that relaxed, I1 cumulative
	// messages, I2 cumulative bytes.
	KindStep
	// KindWatchdog (control shard): the stagnation watchdog observed an
	// idle step (Flag FlagWatchdogIdle) or stopped the run
	// (FlagWatchdogStop). A is the consecutive-idle count.
	KindWatchdog
	// KindFault (control shard): the fault layer held a message back.
	// Flag is FlagFaultDelayed; A and B are the origin and target ranks.
	KindFault
	// KindActiveSet (control shard): the active-set step engine's
	// occupancy after one solver step. A is the number of ranks scheduled
	// to execute the step, B the ranks skipped as quiescent, V1 the skip
	// rate B/(A+B). Dense runs emit none.
	KindActiveSet
	numKinds
)

// Flag values, namespaced per Kind (see the Kind constants).
const (
	// FlagRelaxed marks a KindDecision whose rank relaxed.
	FlagRelaxed uint8 = 1
	// FlagRefresh marks a KindResSend caused by starvation re-announce.
	FlagRefresh uint8 = 2
	// Watchdog flags.
	FlagWatchdogIdle uint8 = 1
	FlagWatchdogStop uint8 = 2
	// Fault flags.
	FlagFaultDelayed uint8 = 1
)

// ControlRank is the Event.Rank value for run-level events that belong to
// no simulated rank (phase boundaries, step records, watchdog and fault
// actions). They are exported on their own "runtime" track.
const ControlRank int32 = -1

// Event is one structured trace record. It is a flat value type — no
// pointers — so recording one is a single copy into a preallocated ring
// slot. Field meaning is per Kind; Ts and Dur are simulated seconds on the
// monotone world clock (rma.World.Now), never wall-clock time.
type Event struct {
	Ts         float64 // simulated seconds at emit (monotone within a run)
	Dur        float64 // simulated seconds, for slice-like kinds
	V1, V2, V3 float64 // kind-specific values
	I1, I2     int64   // kind-specific counters (bytes, cumulative messages)
	Phase      int64   // world phase index at emit
	Step       int32   // parallel step (0 for rma-level events)
	Rank       int32   // owning track: a rank id, or ControlRank
	A, B       int32   // kind-specific ranks/counts
	Kind       Kind
	Tag        uint8 // rma message tag for KindPut/KindDeliver
	Flag       uint8 // kind-specific flag bits
}

// shard is one preallocated ring buffer. buf has its full capacity from
// construction; n counts all events ever emitted, so the write position is
// n % len(buf) and the oldest max(0, n-len(buf)) events have been dropped.
type shard struct {
	buf []Event
	n   int
}

func (s *shard) emit(e Event) {
	s.buf[s.n%len(s.buf)] = e
	s.n++
}

// events appends the shard's retained events, oldest first, to out.
func (s *shard) events(out []Event) []Event {
	c := len(s.buf)
	if s.n <= c {
		return append(out, s.buf[:s.n]...)
	}
	w := s.n % c
	out = append(out, s.buf[w:]...)
	return append(out, s.buf[:w]...)
}

func (s *shard) dropped() int64 {
	if d := s.n - len(s.buf); d > 0 {
		return int64(d)
	}
	return 0
}

// stallBuckets is the size of the power-of-two stall histogram: bucket k
// counts completed hold streaks of length in [2^k, 2^(k+1)).
const stallBuckets = 16

// RankTally is the per-rank aggregate a Recorder maintains incrementally
// on every emit. Unlike the rings, tallies never drop: they are exact for
// the whole run regardless of ring capacity.
type RankTally struct {
	Puts      int64 // one-sided writes staged
	PutBytes  int64
	Recvs     int64 // landings in this rank's window
	RecvBytes int64
	Relaxed   int64 // steps this rank relaxed
	Held      int64 // steps this rank held
	ResSends  int64 // explicit residual updates written
	CostFlops float64
	CostMsgs  float64
	CostBytes float64
	Cost      float64 // total charged simulated seconds
	MaxStall  int64   // longest completed-or-ongoing hold streak
	curStall  int64
	Stalls    [stallBuckets]int64 // completed hold streaks, bucketed by bit length
}

// stepRecord is one per-step metrics row, appended on KindStep.
type stepRecord struct {
	step    int32
	resNorm float64
	simTime float64
	relaxed int32
	msgs    int64
	bytes   int64
}

// activeRecord is one per-step active-set occupancy row, appended on
// KindActiveSet (dense runs emit none, so the table stays empty).
type activeRecord struct {
	step      int32
	executing int32
	skipped   int32
}

// DefaultShardCap is the per-rank ring capacity of NewRecorder, as far as
// eventBudget allows. The control shard gets four times the per-rank
// capacity (it also absorbs fault events, which scale with traffic rather
// than with one rank's activity).
const DefaultShardCap = 4096

// eventBudget bounds the events NewRecorder's rank rings hold in total
// (88 bytes each, 92 MB): up to 256 ranks every ring has DefaultShardCap
// slots, beyond that the rings shrink instead of the allocation growing
// with P — 1.4 GB at P = 4096 otherwise.
const eventBudget = 1 << 20

// Recorder receives structured events from the runtime into preallocated
// ring buffers. The zero value is not usable; construct with NewRecorder. A
// nil *Recorder means tracing is off: every emit site guards with a nil
// check, so the disabled path costs one predictable branch and zero
// allocations, and every method is nil-safe besides.
//
// Concurrency contract (what makes it lock-free): an event with Rank = p is
// emitted only from rank p's phase function or from the driving goroutine
// between phases; ControlRank events only from the driving goroutine.
type Recorder struct {
	ranks   int
	shards  []shard // [0..ranks-1] per rank, [ranks] control
	tally   []RankTally
	steps   []stepRecord
	actives []activeRecord
	method  string // optional run label for the exporters
}

// NewRecorder creates a recorder for a world of p ranks with
// defaultShardCap(p) events of capacity per rank.
func NewRecorder(p int) *Recorder { return newRecorder(p, defaultShardCap(p)) }

// defaultShardCap is DefaultShardCap, or eventBudget/p if that is less,
// but at least one slot: the explicit cap's floor of 16 would double the
// budget above 2¹⁶ ranks.
func defaultShardCap(p int) int { return max(1, min(DefaultShardCap, eventBudget/max(p, 1))) }

// NewRecorderCap creates a recorder with perRank ring capacity per rank
// shard (minimum 16); the control shard gets 4× that. All buffers are
// allocated here — recording never allocates.
func NewRecorderCap(p, perRank int) *Recorder { return newRecorder(p, max(perRank, 16)) }

// newRecorder allocates a recorder of p ranks with exactly perRank slots
// per rank ring.
func newRecorder(p, perRank int) *Recorder {
	if p < 1 {
		p = 1
	}
	r := &Recorder{
		ranks:   p,
		shards:  make([]shard, p+1),
		tally:   make([]RankTally, p),
		steps:   make([]stepRecord, 0, 256),
		actives: make([]activeRecord, 0, 256),
	}
	for i := 0; i < p; i++ {
		r.shards[i].buf = make([]Event, perRank)
	}
	r.shards[p].buf = make([]Event, 4*perRank)
	return r
}

// SetLabel attaches a human-readable run label (method/matrix) shown in
// the exporter headers.
func (r *Recorder) SetLabel(label string) {
	if r == nil {
		return
	}
	r.method = label
}

// shardFor maps an event rank to its shard index: out-of-range ranks
// (including ControlRank) land on the control shard.
func (r *Recorder) shardFor(rank int32) int {
	if rank < 0 || int(rank) >= r.ranks {
		return r.ranks
	}
	return int(rank)
}

// Emit records one event: a ring write plus an incremental tally update.
// Nil-safe and allocation-free. See Recorder for the concurrency contract.
func (r *Recorder) Emit(e Event) {
	if r == nil || e.Kind == KindNone {
		return
	}
	r.shards[r.shardFor(e.Rank)].emit(e)
	if e.Kind == KindStep {
		// one row per solver step into a 256-cap preallocated table; growth is rare and amortized
		r.steps = append(r.steps, stepRecord{
			step:    e.Step,
			resNorm: e.V1,
			simTime: e.V2,
			relaxed: e.A,
			msgs:    e.I1,
			bytes:   e.I2,
		})
		return
	}
	if e.Kind == KindActiveSet {
		// same table discipline as steps above
		r.actives = append(r.actives, activeRecord{step: e.Step, executing: e.A, skipped: e.B})
		return
	}
	if e.Rank < 0 || int(e.Rank) >= r.ranks {
		// Control and out-of-range events carry no per-rank tally; they
		// were still retained on the control ring above.
		return
	}
	t := &r.tally[e.Rank]
	switch e.Kind {
	case KindPut:
		t.Puts++
		t.PutBytes += e.I1
	case KindDeliver:
		t.Recvs++
		t.RecvBytes += e.I1
	case KindRankCost:
		t.CostFlops += e.V1
		t.CostMsgs += e.V2
		t.CostBytes += e.V3
		t.Cost += e.Dur
	case KindDecision:
		if e.Flag&FlagRelaxed != 0 {
			t.Relaxed++
			foldStall(t)
		} else {
			t.Held++
			t.curStall++
			if t.curStall > t.MaxStall {
				t.MaxStall = t.curStall
			}
		}
	case KindResSend:
		t.ResSends++
	}
}

// Dropped returns the total number of events lost to ring wrap-around
// across all shards. The per-rank tallies and the per-step table are exact
// even when events were dropped.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for i := range r.shards {
		d += r.shards[i].dropped()
	}
	return d
}

// Events returns all retained events in canonical export order: rank
// shards ascending, control shard last, chronological within each shard.
// This order is identical under both world engines (see the package
// comment), which is what makes the trace export golden-testable.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := 0
	for i := range r.shards {
		if c := r.shards[i].n; c < len(r.shards[i].buf) {
			n += c
		} else {
			n += len(r.shards[i].buf)
		}
	}
	out := make([]Event, 0, n)
	for i := range r.shards {
		out = r.shards[i].events(out)
	}
	return out
}

// Tally returns a copy of rank p's aggregate counters, with any ongoing
// hold streak folded into the histogram.
func (r *Recorder) Tally(p int) RankTally {
	if r == nil || p < 0 || p >= r.ranks {
		return RankTally{}
	}
	t := r.tally[p]
	foldStall(&t)
	return t
}

// foldStall folds an ongoing hold streak into the completed histogram: Emit
// calls it when a relaxation ends the streak, and Tally so exports taken
// mid-run (or of runs ending in a stall) count it.
func foldStall(t *RankTally) {
	if t.curStall > 0 {
		b := bits.Len64(uint64(t.curStall)) - 1
		if b >= stallBuckets {
			b = stallBuckets - 1
		}
		t.Stalls[b]++
		t.curStall = 0
	}
}
