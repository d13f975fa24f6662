package dmem

import "southwell/internal/rma"

// Run state (DESIGN.md §16): everything a solve mutates — the simulated
// world, the rank states with their message bodies, and the step engine's
// active-set tables. It is sized once from the layout, carved from a few
// slabs (a rank's vectors are contiguous, in rank order), and rewound by
// reset before every solve, the first included: a fresh state and a reused
// one execute the same lines, whichever method ran before. A Setup parks one
// between solves, so a repeat solve allocates only what escapes to the caller.
type runState struct {
	l      *Layout
	w      *rma.World
	states []*rankState
	eng    stepEngine
	rGlob  []float64 // reset scratch: b − Ax
	norms  []float64 // local norms in rank order: norm2 of it is the global norm
	// seqSeen and sentTo back every rank's slices of that name.
	seqSeen []int32
	sentTo  []bool
}

// newRunState allocates the run state of a layout and binds what never
// changes: each rank's place in the layout, the message bodies' buffers and
// slots, and the local factors of a Setup that has them. Nothing else in it
// is initialized for a solve: that is reset's job alone.
func newRunState(s *Setup) *runState {
	l := s.Layout
	p := l.P
	st := &runState{
		l: l, w: rma.NewWorld(p, rma.CostModel{}), states: make([]*rankState, p),
		rGlob: make([]float64, l.A.N), norms: make([]float64, p),
	}
	// Vectors, ghost rows and Γ/Γ̃, then the message bodies: a solve bnd and
	// a res bnd per boundary row (a solve body's deltas are the sender's
	// extDelta row for that neighbor).
	nd := int(l.nbrOff[p])
	nf := 2*l.A.N + 2*int(l.extOff[p]) + 2*nd + 2*int(l.bndOff[p])
	if s.factors != nil {
		nf += l.A.N // direct.scratch: m each
	}
	st.seqSeen, st.sentTo = make([]int32, nd), make([]bool, nd)
	floats, bodies, slab := make([]float64, nf), make([]payload, 2*nd), make([]rankState, p)
	// Sub-slices are capacity-capped: an append can never reach a neighbor.
	take := func(n int) []float64 {
		out := floats[:n:n]
		floats = floats[n:]
		return out
	}
	takeBodies := func(n int) []payload {
		out := bodies[:n:n]
		bodies = bodies[n:]
		return out
	}
	e := &st.eng
	e.w, e.states = st.w, st.states
	e.list, e.inSet, e.sawMail, e.idleDeg = make([]int32, p), make([]bool, p), make([]bool, p), make([]float64, p)
	for pr := range p {
		r0, n0, e0 := l.rowOff[pr], l.nbrOff[pr], l.extOff[pr]
		m, deg, ext := int(l.rowOff[pr+1]-r0), int(l.nbrOff[pr+1]-n0), int(l.extOff[pr+1]-e0)
		lo, hi := int(n0), int(n0)+deg
		rs := &slab[pr]
		*rs = rankState{
			l: l, p: int32(pr), row0: r0, nbr0: n0, ext0: e0,
			x: take(m), r: take(m), z: take(ext), extDelta: take(ext),
			gamma: take(deg), gammaTilde: take(deg),
			seqSeen: st.seqSeen[lo:hi:hi], sentTo: st.sentTo[lo:hi:hi],
			solve: takeBodies(deg), res: takeBodies(deg),
		}
		for j := range deg {
			k := lo + j
			nBnd := int(l.nbrBndOff[k+1] - l.nbrBndOff[k])
			_, delta := rs.ghost(j)
			rs.solve[j] = payload{deltas: delta[:len(delta):len(delta)], bnd: take(nBnd), slot: l.slotInNbr[k]}
			rs.res[j] = payload{bnd: take(nBnd), slot: l.slotInNbr[k]}
		}
		if s.factors != nil {
			rs.direct.f, rs.direct.scratch = s.factors[pr], take(m)
		}
		st.states[pr] = rs
		e.idleDeg[pr] = float64(deg) // phase-1 idle charge: the unconditional degree scan
	}
	return st
}

// reset is the only initializer of a run: rank states from the global
// initial guess — exact residuals, exact neighbor norms and Γ̃ (setup
// exchange, not counted), exact ghosts — the engine rewound to "every rank in
// the set", and the world rewound to the default cost model with cfg's
// engine, fault plan and tracer installed. extDelta, lastSentNorm, the
// direct-solver scratch and every message-body field but slot are written
// before they are read in any run, so they are deliberately not cleared.
func (st *runState) reset(b, x []float64, cfg Config, spec stepSpec) {
	l, w, e := st.l, st.w, &st.eng
	l.A.Residual(b, x, st.rGlob)
	e.list = e.list[:l.P]
	for p, rs := range st.states {
		for li, g := range l.rows(p) {
			rs.x[li] = x[g]
			rs.r[li] = st.rGlob[g]
		}
		for k, g := range l.extGlob[rs.ext0:][:len(rs.z)] {
			rs.z[k] = st.rGlob[g]
		}
		rs.norm = rs.computeNorm()
		st.norms[p] = rs.norm
		rs.relaxed, rs.gotMsg, rs.starved, rs.starveStamp = false, false, 0, 0
		e.list[p], e.inSet[p], e.sawMail[p] = int32(p), true, false // step 1 runs every rank: no hold has been observed yet
	}
	for _, rs := range st.states {
		for j, q := range rs.nbrs() {
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

	w.Reset(rma.DefaultCostModel())
	w.Parallel = cfg.Parallel
	w.InstallFaults(cfg.Faults)
	w.SetTracer(cfg.Trace)
}

// takeRunState hands the solve its run state: the one parked on s if there
// is one, else a new one. A concurrent run on the same Setup finds the slot
// empty and builds its own.
func (s *Setup) takeRunState() *runState {
	s.mu.Lock()
	st := s.parked
	s.parked = nil
	s.mu.Unlock()
	if st == nil {
		st = newRunState(s)
	}
	return st
}

// park returns a run state whose solve completed normally to its Setup's
// one slot (dropped if the slot is taken). The world is reset first, so a
// parked state keeps nothing of the caller's — tracer, fault plan, last-phase
// payloads — alive, and holds no goroutine.
func (st *runState) park(s *Setup) {
	st.w.Reset(rma.CostModel{})
	st.eng.hist, st.eng.calendar = nil, nil
	s.mu.Lock()
	if s.parked == nil {
		s.parked = st
	}
	s.mu.Unlock()
}
