package rma

// Neighborhood-epoch scheduler for the worker-pool engine.
//
// The barrier engine in rma.go ends every access epoch with a global
// sync.WaitGroup barrier: one slow rank stalls all P ranks, and the driver
// then spends an O(P) deliver() scan moving staged puts. That is faithful
// to MPI_Win_fence, but the paper's implementation uses the *group* flavor
// of one-sided synchronization (MPI_Win_post/start/complete/wait): a rank's
// epoch completes when the members of its post/start group — its layout
// neighbors — have completed theirs, not when the whole machine has. This
// file implements exactly that discipline inside the simulator:
//
//   - Every rank carries an atomic epoch counter, incremented when the
//     rank has executed a phase and published its staged puts.
//   - A rank may read its window for phase boundary k (and so start phase
//     k+1) as soon as every neighbor's epoch counter has passed k — it
//     never waits on non-neighbors, so distant ranks pipeline: rank 0 can
//     be two phases ahead of rank P-1 inside one RunPhases group, and a
//     straggler (including FaultPlan stragglers and pauses) delays only
//     its own neighborhood.
//   - Workers that cannot make progress on any owned rank park on
//     per-neighbor wait lists (a registered worker id plus a one-slot
//     notify channel) and are woken by the next epoch advance of the rank
//     they are blocked on. Registration re-checks the epoch under the
//     waitee's lock, so a concurrent advance can never be missed.
//
// Per-rank engine state is O(degree): staged messages live in a two-slot
// ring of per-neighbor buffers instead of the barrier engine's global
// staged/inbox scan, and all buffers keep their capacity across phases
// (arena reuse — the steady state allocates nothing).
//
// Ring depth 2 is sufficient, not just empirically safe: a rank reuses
// staging slot a&1 when it runs epoch a, and the previous user of that
// slot was epoch a-2. Running epoch a requires having assembled boundary
// a-1, which requires every neighbor's epoch ≥ a, i.e. every neighbor has
// *run* epoch a-1, which (per-rank program order: run k happens after
// assemble k-1) means every neighbor has assembled boundary a-2 — and
// assembling boundary a-2 is precisely what consumes this rank's slot
// (a-2)&1 = a&1. So every consumer is provably done before the slot is
// truncated.
//
// Results are bit-identical to the sequential and barrier engines: a phase
// function touches only its rank's state, windows are assembled in
// ascending origin-rank order exactly like deliver(), each rank's α-β-γ
// phase cost is computed with the same expression on the same values, and
// the per-phase maxima are folded into SimTime in phase order on the
// *driver* goroutine at the group join — worker scheduling can never
// perturb a float. The engine-equivalence tests assert this on the full
// method suite under -race.
//
// Fallbacks (both keep results bit-identical, only pipelining is lost):
// the scheduler declines groups when a tracer is installed (trace
// timestamps read the global clock mid-phase) and when the fault plan
// draws from the sequential chaos PRNG (delays/dups/reorders are decided
// in global staging order by design). Stragglers, phase spikes, and pauses
// are counter-indexed and run natively.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"southwell/internal/obs"
)

// Sched selects how the worker-pool engine synchronizes access epochs.
type Sched uint8

const (
	// SchedBarrier completes every epoch with a global barrier and a
	// driver-side delivery scan (MPI_Win_fence semantics; the default).
	SchedBarrier Sched = iota
	// SchedNeighbor completes a rank's epoch when its registered
	// neighborhood has completed (MPI_Win_post/start/complete/wait
	// semantics). Requires SetNeighborhoods and Parallel; RunPhases groups
	// fall back to the barrier engine whenever the scheduler cannot
	// preserve bit-identity (tracer installed, RNG-dependent fault plan).
	SchedNeighbor
)

// nbSlots is the staging-ring depth per (rank, neighbor); see the proof in
// the package comment above for why 2 is enough.
const nbSlots = 2

// nbRank is one rank's neighborhood-scheduler state. The atomic epoch and
// the waiter list are shared; everything else is touched only by the
// worker that owns the rank during a group, or by the driver at the join.
type nbRank struct {
	nbrs []int32 // neighbor ranks, ascending
	back []int32 // back[j]: index of this rank in nbrs[j]'s neighbor list

	// stage[slot][j]: puts toward nbrs[j] staged in epoch a, slot = a&1.
	// Buffers keep their capacity; payloads are nil-ed on slot reuse.
	stage [nbSlots][][]Message

	// epoch counts fully published phases: staged puts of epoch a are
	// readable once epoch > a. Monotone for the life of the world.
	epoch atomic.Int64

	mu      sync.Mutex
	waiters []int32 // worker ids to wake on the next epoch advance

	// Owner-worker state during a group.
	ran         int64 // epochs executed and published
	asm         int64 // boundaries assembled (inbox ready for epoch asm)
	cur         int64 // epoch currently executing (Put routes by cur&1)
	pausedPhase bool  // rank was paused in the last executed epoch

	costs []float64 // per group phase: this rank's α-β-γ cost
	// Accounting accumulated per rank during the group and folded into the
	// world's monotone counters at the join (plain int sums, so the fold
	// order cannot change a single bit of Stats).
	totMsgs   [numTags]int64
	totBytes  [numTags]int64
	delivered int64
	paused    int64
	blocked   int64 // wait tally: assemblies that found a neighbor not ready
}

// find returns the index of rank q in the ascending neighbor list, or -1.
func (nr *nbRank) find(q int32) int {
	lo, hi := 0, len(nr.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nr.nbrs[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nr.nbrs) && nr.nbrs[lo] == q {
		return lo
	}
	return -1
}

// nbState is the world-level scheduler state.
type nbState struct {
	ranks  []nbRank
	base   int64 // epochs completed by every rank (advanced at each join)
	group  nbGroup
	fsBuf  []func(int) // persistent copy of the group's phase functions
	groups int64       // neighborhood groups run (wait-tally denominator)
}

// nbGroup describes one in-flight RunPhases group to the workers.
type nbGroup struct {
	fs    []func(int)
	base  int64 // epoch index of the group's first phase
	baseP int64 // world phase counter at group start (fault-plan indexing)
}

// SetNeighborhoods registers the post/start group of every rank: nbrs[p]
// lists the ranks whose windows p writes and whose epoch completion p may
// wait on, in ascending order, self excluded. The relation must be
// symmetric (q ∈ nbrs[p] ⇔ p ∈ nbrs[q]), exactly what a layout's coupling
// neighborships provide. Must be called before the first phase; under
// SchedNeighbor, Put targets outside the registered neighborhood panic —
// one-sided access epochs only cover the access group, as in MPI PSCW.
func (w *World) SetNeighborhoods(nbrs [][]int) {
	if len(nbrs) != w.P {
		panic(fmt.Sprintf("rma: SetNeighborhoods got %d lists for P=%d", len(nbrs), w.P))
	}
	nb := &nbState{ranks: make([]nbRank, w.P)}
	for p := range nb.ranks {
		nr := &nb.ranks[p]
		list := nbrs[p]
		nr.nbrs = make([]int32, len(list))
		for j, q := range list {
			if q < 0 || q >= w.P || q == p {
				panic(fmt.Sprintf("rma: SetNeighborhoods rank %d: bad neighbor %d (P=%d)", p, q, w.P))
			}
			if j > 0 && list[j-1] >= q {
				panic(fmt.Sprintf("rma: SetNeighborhoods rank %d: neighbors not ascending", p))
			}
			nr.nbrs[j] = int32(q)
		}
		for s := range nr.stage {
			nr.stage[s] = make([][]Message, len(list))
		}
	}
	for p := range nb.ranks {
		nr := &nb.ranks[p]
		nr.back = make([]int32, len(nr.nbrs))
		for j, q := range nr.nbrs {
			bj := nb.ranks[q].find(int32(p))
			if bj < 0 {
				panic(fmt.Sprintf("rma: SetNeighborhoods: asymmetric neighborhood (%d lists %d, not vice versa)", p, q))
			}
			nr.back[j] = int32(bj)
		}
	}
	w.nb = nb
}

// neighborSched reports whether the next phase group can run on the
// neighborhood-epoch engine while preserving bit-identity with the
// sequential engine.
func (w *World) neighborSched() bool {
	if w.Sched != SchedNeighbor || w.nb == nil || !w.Parallel || w.P <= 1 {
		return false
	}
	if w.trace != nil {
		// Trace timestamps read the global simulated clock, which only
		// advances at group joins; emit mid-pipeline and the timeline lies.
		return false
	}
	if ch := w.chaos; ch != nil && !ch.rngFree() {
		// Delay/dup/reorder draws consume the plan PRNG in global staging
		// order; per-neighborhood delivery would re-order the stream.
		return false
	}
	return true
}

// RunPhases executes a group of consecutive access epochs — typically the
// phases of one solver step. Under the barrier scheduler (or whenever the
// neighborhood engine must decline, see neighborSched) it is exactly
// RunPhase applied in order. Under SchedNeighbor the group runs on the
// neighborhood-epoch engine: ranks proceed phase to phase as soon as their
// own neighborhood is ready, and the group joins when every rank has
// finished every phase. Results, message statistics, and SimTime are
// bit-identical either way.
func (w *World) RunPhases(fs ...func(rank int)) {
	if w.closed.Load() {
		panic(ErrClosed)
	}
	if len(fs) == 0 {
		return
	}
	if !w.neighborSched() {
		for _, f := range fs {
			w.RunPhase(f)
		}
		return
	}
	w.runNbGroup(fs)
}

// runNbGroup drives one group on the neighborhood engine: broadcast to the
// persistent workers, wait for the group barrier, then fold the per-rank
// accounting into the world's monotone counters — in deterministic order,
// on this goroutine.
func (w *World) runNbGroup(fs []func(int)) {
	nb := w.nb
	nb.fsBuf = append(nb.fsBuf[:0], fs...) // persistent group buffer keeps its capacity across steps
	g := &nb.group
	g.fs = nb.fsBuf
	g.base = nb.base
	g.baseP = w.phases
	gn := int64(len(fs))
	for p := range nb.ranks {
		nr := &nb.ranks[p]
		if int64(cap(nr.costs)) < gn {
			nr.costs = make([]float64, gn) // sized once to the largest group ever seen (methods use 2-3 phases)
		}
		nr.costs = nr.costs[:gn]
	}
	w.poolOnce.Do(w.startPool)
	w.nbActive = true
	w.barrier.Add(len(w.workers))
	for _, ch := range w.workers {
		ch <- phaseWork{g: g}
	}
	w.barrier.Wait()
	w.nbActive = false
	nb.groups++
	if w.closed.Load() {
		// Close released parked workers mid-group; the group did not
		// complete. Fail loudly like every other use-after-Close.
		panic(ErrClosed)
	}
	// SimTime accumulates per-phase maxima in phase order here, so worker
	// scheduling can never perturb floating-point accumulation.
	for k := int64(0); k < gn; k++ {
		maxCost := 0.0
		for p := range nb.ranks {
			if c := nb.ranks[p].costs[k]; c > maxCost {
				maxCost = c
			}
		}
		w.simTime += maxCost
		w.phases++
	}
	ch := w.chaos
	for p := range nb.ranks {
		nr := &nb.ranks[p]
		for t := 0; t < int(numTags); t++ {
			w.totalMsgs[t] += nr.totMsgs[t]
			w.totalBytes[t] += nr.totBytes[t]
			nr.totMsgs[t] = 0
			nr.totBytes[t] = 0
		}
		w.delivered += nr.delivered
		nr.delivered = 0
		if ch != nil {
			ch.paused += nr.paused
		}
		nr.paused = 0
	}
	nb.base += gn
}

// nbPut stages a put on the neighborhood engine: O(log degree) routing
// into the sender's current ring slot, no global scan.
func (w *World) nbPut(from, to int, tag Tag, bytes int, payload any) {
	nr := &w.nb.ranks[from]
	j := nr.find(int32(to))
	if j < 0 {
		panic(fmt.Sprintf("rma: Put from %d to %d under SchedNeighbor: target is outside the registered post/start group", from, to))
	}
	slot := nr.cur & 1
	nr.stage[slot][j] = append(nr.stage[slot][j], Message{From: from, To: to, Tag: tag, Bytes: bytes, Payload: payload}) // ring-slot buffers keep their capacity across phases
	nr.totMsgs[tag]++
	nr.totBytes[tag] += int64(bytes)
	w.msgs[from]++
	w.bytes[from] += int64(bytes)
}

// nbRunChunk advances every owned rank through all phases of the group,
// parking on neighbor epochs when no owned rank can progress. Returns true
// if the world was stopped (Close) mid-group; the caller still signals the
// group barrier and then retires the worker.
func (w *World) nbRunChunk(id, lo, hi int, g *nbGroup) bool {
	nb := w.nb
	target := g.base + int64(len(g.fs))
	total := hi - lo
	for {
		select {
		case <-w.stop:
			return true
		default:
		}
		done := 0
		progress := false
		for p := lo; p < hi; p++ {
			nr := &nb.ranks[p]
			for nr.asm < target {
				if nr.ran == nr.asm {
					w.nbRunPhase(p, nr, g)
					progress = true
				}
				if !w.nbTryAssemble(p, nr, g) {
					nr.blocked++
					break
				}
				progress = true
			}
			if nr.asm >= target {
				done++
			}
		}
		if done >= total {
			return false
		}
		if progress {
			continue
		}
		if w.nbPark(id, lo, hi, target) {
			return true
		}
	}
}

// nbRunPhase executes one epoch for one rank: reclaim the staging slot,
// run the phase function (or skip it while paused, exactly like the
// barrier engine), publish the epoch advance, and wake parked waiters.
func (w *World) nbRunPhase(p int, nr *nbRank, g *nbGroup) {
	a := nr.ran
	slot := a & 1
	for j := range nr.stage[slot] {
		s := nr.stage[slot][j]
		for i := range s {
			s[i].Payload = nil // do not retain payloads past their consumers
		}
		nr.stage[slot][j] = s[:0]
	}
	nr.cur = a
	phase := g.baseP + (a - g.base)
	ch := w.chaos
	paused := false
	if ch != nil {
		paused = ch.pausedAt(p, phase)
	}
	if paused {
		nr.paused++
		// The window outlives this epoch. Copy it before the epoch store
		// below: after it a neighbor may already be rewriting its buffers.
		retainWindow(w.inbox[p])
	} else {
		g.fs[a-g.base](p)
		if ch != nil {
			ch.hostStraggle(p, phase, w.flops[p])
		}
	}
	nr.pausedPhase = paused
	nr.epoch.Store(a + 1)
	nr.mu.Lock()
	for _, wid := range nr.waiters {
		select {
		case w.nbNotify[wid] <- struct{}{}:
		default: // waiter already has a pending wakeup
		}
	}
	nr.waiters = nr.waiters[:0]
	nr.mu.Unlock()
	nr.ran = a + 1
}

// nbTryAssemble assembles rank p's window for boundary nr.asm if every
// neighbor has published that epoch, landing messages in ascending origin
// order (the same deterministic order as deliver) and computing the
// rank's α-β-γ phase cost with the exact expression deliver uses.
func (w *World) nbTryAssemble(p int, nr *nbRank, g *nbGroup) bool {
	a := nr.asm
	need := a + 1
	nb := w.nb
	for _, q := range nr.nbrs {
		if nb.ranks[q].epoch.Load() < need {
			return false
		}
	}
	if !nr.pausedPhase {
		in := w.inbox[p]
		for i := range in {
			in[i].Payload = nil
		}
		w.inbox[p] = in[:0]
	}
	// A paused rank's window is retained: landed one-sided writes stay
	// readable until it next executes, exactly as MPI_Put semantics allow
	// (and exactly what the barrier deliver does).
	slot := a & 1
	var recvM, recvB int64
	for j, q := range nr.nbrs {
		msgs := nb.ranks[q].stage[slot][nr.back[j]]
		for i := range msgs {
			w.inbox[p] = append(w.inbox[p], msgs[i]) // window buffers keep their capacity across phases
			recvM++
			recvB += int64(msgs[i].Bytes)
		}
	}
	nr.delivered += recvM
	h := float64(w.msgs[p] + recvM)
	hb := float64(w.bytes[p] + recvB)
	cost := w.Model.Gamma*w.flops[p] + w.Model.Alpha*h + w.Model.Beta*hb
	if ch := w.chaos; ch != nil {
		cost *= ch.slowAt(p, g.baseP+(a-g.base))
	}
	nr.costs[a-g.base] = cost
	w.flops[p] = 0
	w.msgs[p] = 0
	w.bytes[p] = 0
	nr.asm = a + 1
	return true
}

// nbPark registers the worker on one blocking neighbor per stuck rank and
// blocks until an epoch advance (or Close) wakes it. Registration
// re-checks the epoch under the waitee's lock: an advance concurrent with
// registration is observed either by the re-check or by the notify the
// advancing rank sends afterwards, so a wakeup can never be lost. Returns
// true if the world stopped.
func (w *World) nbPark(id, lo, hi int, target int64) bool {
	nb := w.nb
	registered := false
	for p := lo; p < hi; p++ {
		nr := &nb.ranks[p]
		if nr.asm >= target || nr.ran == nr.asm {
			continue // finished, or still has a runnable phase
		}
		need := nr.asm + 1
		for _, q := range nr.nbrs {
			qr := &nb.ranks[q]
			if qr.epoch.Load() >= need {
				continue
			}
			qr.mu.Lock()
			if qr.epoch.Load() >= need {
				qr.mu.Unlock()
				return false // progress appeared; resweep without parking
			}
			qr.waiters = append(qr.waiters, int32(id)) // waiter lists keep their capacity across parks
			qr.mu.Unlock()
			registered = true
			break // one registration per stuck rank suffices
		}
	}
	if !registered {
		// Every stuck rank became unblocked while we scanned.
		return false
	}
	w.nbParks[id]++
	select {
	case <-w.nbNotify[id]:
		return false
	case <-w.stop:
		return true
	}
}

// WaitTally reports the neighborhood scheduler's wait diagnostics, or nil
// if no group ever ran on it. Counts, not seconds: the runtime is
// wall-clock-free by policy (dslint detrand), and the counts are
// scheduling-dependent diagnostics — never part of results.
func (w *World) WaitTally() *obs.WaitTally {
	if w.nb == nil || w.nb.groups == 0 {
		return nil
	}
	t := &obs.WaitTally{
		Groups:  w.nb.groups,
		Blocked: make([]int64, w.P),
	}
	for p := range w.nb.ranks {
		t.Blocked[p] = w.nb.ranks[p].blocked
	}
	for _, c := range w.nbParks {
		t.Parks += c
	}
	return t
}
