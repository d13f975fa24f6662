package dmem

import (
	"fmt"

	"southwell/internal/rma"
)

// Run state (DESIGN.md §16): everything a solve mutates — the simulated
// world, the rank states, the step engine's active-set tables and the
// method's payload tables. It is sized once from the layout, carved from a
// few slabs (a rank's vectors are contiguous, in rank order), and rewound by
// reset before every solve, the first included: a fresh state and a reused
// one execute the same lines. A Setup parks one between solves, so a repeat
// solve allocates only what escapes to the caller.
type runState struct {
	l      *Layout
	w      *rma.World
	states []*rankState
	eng    stepEngine
	rGlob  []float64 // reset scratch: b − Ax
	norms2 []float64 // squared local norms in rank order (flatNorm)
	// seqSeen and sentTo back every rank's slices of that name; nbrOff[p] is
	// rank p's first slot in them and in the payload tables.
	seqSeen []int64
	sentTo  []bool
	nbrOff  []int
	// payloads holds the flat per-(rank, neighbor) tables (solve, explicit
	// update) of the method that last ran; see payloadTable.
	payloads [2]any
}

// newRunState allocates the run state of a layout. Nothing in it is
// initialized for a solve: that is reset's job alone.
func newRunState(l *Layout) *runState {
	p := l.P
	st := &runState{
		l: l, w: rma.NewWorld(p, rma.CostModel{}), states: make([]*rankState, p),
		rGlob: make([]float64, l.A.N), norms2: make([]float64, p), nbrOff: make([]int, p+1),
	}
	nf := 0
	for pr, rd := range l.Ranks {
		st.nbrOff[pr+1] = st.nbrOff[pr] + rd.Degree()
		nf += 2*rd.M() + 2*len(rd.ExtGlob) + 2*rd.Degree()
		for j := range rd.Nbrs {
			nf += len(rd.BndExt[j]) + 2*len(rd.MyBnd[j])
		}
	}
	nd := st.nbrOff[p]
	st.seqSeen, st.sentTo = make([]int64, nd), make([]bool, nd)
	floats, heads, slab := make([]float64, nf), make([][]float64, 4*nd), make([]rankState, p)
	// Sub-slices are capacity-capped: an append can never reach a neighbor.
	take := func(n int) []float64 {
		s := floats[:n:n]
		floats = floats[n:]
		return s
	}
	takeHeads := func(n int) [][]float64 {
		s := heads[:n:n]
		heads = heads[n:]
		return s
	}
	e := &st.eng
	e.w, e.states = st.w, st.states
	e.list, e.inSet, e.sawMail, e.idleDeg = make([]int32, p), make([]bool, p), make([]bool, p), make([]float64, p)
	for pr, rd := range l.Ranks {
		m, ext, deg, lo, hi := rd.M(), len(rd.ExtGlob), rd.Degree(), st.nbrOff[pr], st.nbrOff[pr+1]
		rs := &slab[pr]
		*rs = rankState{
			rd: rd, x: take(m), r: take(m), z: take(ext), extDelta: take(ext),
			gamma: take(deg), gammaTilde: take(deg),
			seqSeen: st.seqSeen[lo:hi:hi], sentTo: st.sentTo[lo:hi:hi],
			sentBnd: takeHeads(deg), sendDeltas: takeHeads(deg), sendBnd: takeHeads(deg), resBnd: takeHeads(deg),
		}
		for j := range rd.Nbrs {
			rs.sendDeltas[j] = take(len(rd.BndExt[j]))
			rs.sendBnd[j] = take(len(rd.MyBnd[j]))
			rs.resBnd[j] = take(len(rd.MyBnd[j]))
		}
		st.states[pr] = rs
		e.idleDeg[pr] = float64(deg) // phase-1 idle charge: the unconditional Degree() scan
	}
	return st
}

// reset is the only initializer of a run: rank states from the global
// initial guess — exact residuals, exact neighbor norms and Γ̃ (setup
// exchange, not counted), exact ghosts — the engine rewound to "every rank in
// the set", and the world rewound with cfg's engine, scheduler, fault plan
// and tracer installed. Send buffers, extDelta, sentBnd, lastSentNorm, the
// direct-solver scratch and every payload field are written before they are
// read in any run, so they are deliberately not cleared.
func (st *runState) reset(b, x []float64, cfg Config, spec stepSpec) {
	l, w, e := st.l, st.w, &st.eng
	l.A.Residual(b, x, st.rGlob)
	e.list = e.list[:l.P]
	for p, rs := range st.states {
		for li, g := range rs.rd.Glob {
			rs.x[li] = x[g]
			rs.r[li] = st.rGlob[g]
		}
		for k, g := range rs.rd.ExtGlob {
			rs.z[k] = st.rGlob[g]
		}
		rs.norm = rs.computeNorm()
		st.norms2[p] = rs.norm * rs.norm
		rs.relaxed, rs.gotMsg, rs.starved, rs.starveStamp = false, false, 0, 0
		e.list[p], e.inSet[p], e.sawMail[p] = int32(p), true, false // step 1 runs every rank: no hold has been observed yet
	}
	for _, rs := range st.states {
		for j, q := range rs.rd.Nbrs {
			rs.gamma[j] = st.states[q].norm
			rs.gammaTilde[j] = rs.norm
		}
		rs.lastTold = rs.norm
	}
	clear(st.seqSeen)
	clear(st.sentTo)

	e.pinned = cfg.pinned(spec)
	e.starve, e.refreshAfter = spec.starvation && cfg.Faults != nil, cfg.refreshAfter()
	e.listDirty, e.hist, e.calendar = false, nil, nil
	if !e.pinned {
		e.hist = make([]int, 0, cfg.steps())
		if e.starve {
			e.calendar = make(map[int][]int32)
		}
	}

	w.Reset(cfg.model())
	w.Parallel = cfg.Parallel
	w.InstallFaults(cfg.Faults)
	w.SetTracer(cfg.Trace)
}

// payloadTable returns the flat table of payload type T for one of a
// method's two message kinds, entry nbrOff[p]+j belonging to rank p's
// neighbor j. Pointers into it cross the simulated network, so the
// steady-state message path allocates nothing. The table of the method that
// last ran is kept; only slot is set here — it never changes — and every
// other field is rewritten before each Put.
func payloadTable[T any](st *runState, kind int, setSlot func(pl *T, slot int32)) []T {
	if t, ok := st.payloads[kind].([]T); ok {
		return t
	}
	t := make([]T, len(st.seqSeen))
	for p, rs := range st.states {
		for j, slot := range rs.rd.SlotInNbr {
			setSlot(&t[st.nbrOff[p]+j], slot)
		}
	}
	st.payloads[kind] = t
	return t
}

// takeRunState hands the solve its run state: the one parked on cfg.Setup
// if there is one, else a new one. A concurrent run on the same Setup finds
// the slot empty and builds its own.
func takeRunState(l *Layout, cfg Config) *runState {
	if s := cfg.Setup; s != nil {
		if s.Layout != l {
			panic("dmem: Config.Setup was built for a different layout")
		}
		if s.Local != cfg.Local {
			panic(fmt.Sprintf("dmem: Config.Setup local solver %v does not match Config.Local %v", s.Local, cfg.Local))
		}
		s.mu.Lock()
		st := s.parked
		s.parked = nil
		s.mu.Unlock()
		if st != nil {
			return st
		}
	}
	return newRunState(l)
}

// park returns a run state whose solve completed normally to its Setup's
// one slot (dropped if there is no Setup or the slot is taken). The world is
// reset first, so a parked state keeps nothing of the caller's — tracer,
// fault plan, last-phase payloads — alive, and holds no goroutine.
func (st *runState) park(s *Setup) {
	if s == nil {
		return
	}
	st.w.Reset(rma.CostModel{})
	st.eng.hist, st.eng.calendar = nil, nil
	s.mu.Lock()
	if s.parked == nil {
		s.parked = st
	}
	s.mu.Unlock()
}
