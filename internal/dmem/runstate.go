package dmem

import (
	"fmt"
	"slices"

	"southwell/internal/rma"
)

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
	norms  []float64 // local norms in rank order: norm2 of it is the global norm
	// x is the iterate, n floats in A's numbering: reset copies x₀ in, each
	// relaxation adds its corrections at the rows it owns, and finish hands
	// the caller a copy. No rank keeps a local copy.
	x []float64
	// acc is the sweep accumulator, n floats indexed by global row: the
	// ranks sweep through it one after another (relaxSweep), and each leaves
	// it all zero. It is also reset's scratch for b − Ax when x₀ is not
	// zero, which reset clears.
	acc []float64
	// extGlob is the global id of the row behind every ext slot, flat in
	// slot order (Layout.extRows): a sweep's ghost rows, and where reset
	// reads each ghost's residual.
	extGlob []int32
	ext     *extCouplings // a LocalDirect Setup's external couplings, else nil
	// seqSeen and sentTo back every rank's slices of that name.
	seqSeen []int32
	sentTo  []bool
	// floats is the one float slab: every rank's vectors and the floats its
	// message bodies name by offset.
	floats []float64
	hold   func(*rma.Message) // holdBody, bound once: the world's hold function
}

// newRunState allocates the run state of a layout and binds what never
// changes: each rank's place in the layout, the message bodies' buffers and
// slots, and the local factors of a Setup that has them. Nothing else in it
// is initialized for a solve: that is reset's job alone.
func newRunState(s *Setup) *runState {
	l := s.Layout
	p := l.P
	// Residuals, ghost rows and Γ/Γ̃, then the message bodies' floats: a
	// solve bnd and a res bnd per boundary row (a solve body's deltas are
	// the sender's extDelta row for that neighbor). Bodies name them by
	// int32 offset, so the slab must fit one.
	nd := int(l.nbrOff[p])
	nf := l.A.N + 2*int(l.extOff[p]) + 2*nd + 2*int(l.bndOff[p])
	if s.factors != nil {
		nf += l.A.N // direct.scratch: m each
	}
	if err := fitsIndex("the run state's floats", nf); err != nil {
		panic(err)
	}
	vecs := make([]float64, 2*l.A.N) // x and acc
	st := &runState{
		l: l, w: rma.NewWorld(p, rma.CostModel{}), states: make([]*rankState, p),
		x: vecs[:l.A.N:l.A.N], acc: vecs[l.A.N:], norms: make([]float64, p),
		extGlob: l.extRows(), ext: s.ext,
	}
	st.hold = st.holdBody
	st.seqSeen, st.sentTo = make([]int32, nd), make([]bool, nd)
	st.floats = make([]float64, nf)
	bodies, slab := make([]payload, 2*nd), make([]rankState, p)
	// carve reserves the slab's next n floats and returns their offset; take
	// cuts them as a slice, capacity-capped so that an append can never reach
	// a neighbor.
	at := 0
	carve := func(n int) int32 {
		off := at
		at += n
		return int32(off)
	}
	take := func(n int) []float64 {
		off := carve(n)
		return st.floats[off:][:n:n]
	}
	takeBodies := func(n int) []payload {
		out := bodies[:n:n]
		bodies = bodies[n:]
		return out
	}
	e := &st.eng
	e.w, e.states = st.w, st.states
	e.list, e.admitted = make([]int32, p), make([]int32, 0, p)
	e.inSet, e.sawMail, e.idleDeg = make([]bool, p), make([]bool, p), make([]float64, p)
	// Slots: ranks are visited in ascending order and each visits its
	// neighbors in ascending order, so rank pr's position in neighbor q's
	// list (NewLayout checked that it is there) is the count of ranks that
	// visited q before it, cur[q]. e.list is the counter: reset rewrites it.
	cur := e.list
	for pr := range p {
		r0, n0, e0 := l.rowOff[pr], l.nbrOff[pr], l.extOff[pr]
		m, deg, ext := int(l.rowOff[pr+1]-r0), int(l.nbrOff[pr+1]-n0), int(l.extOff[pr+1]-e0)
		lo, hi := int(n0), int(n0)+deg
		rs := &slab[pr]
		z, r := take(ext), take(m)
		d0 := int32(at) - e0 // extDelta's offset, less the rank's first ext slot
		*rs = rankState{
			l: l, st: st, p: int32(pr), row0: r0, nbr0: n0, ext0: e0,
			r: r, z: z, extDelta: take(ext), nnz: s.nnz[pr],
			gamma: take(deg), gammaTilde: take(deg),
			seqSeen: st.seqSeen[lo:hi:hi], sentTo: st.sentTo[lo:hi:hi],
			solve: takeBodies(deg), res: takeBodies(deg),
		}
		for j, q := range rs.nbrs() {
			k, slot := lo+j, cur[q]
			cur[q]++
			nBnd := int(l.nbrBndOff[k+1] - l.nbrBndOff[k])
			rs.solve[j] = payload{deltas: d0 + l.nbrExtOff[k], bnd: carve(nBnd), slot: slot}
			rs.res[j] = payload{bnd: carve(nBnd), slot: slot}
		}
		if s.factors != nil {
			rs.direct.f, rs.direct.scratch = s.factors[pr], take(m)
		}
		st.states[pr] = rs
		e.idleDeg[pr] = float64(deg) // phase-1 idle charge: the unconditional degree scan
	}
	return st
}

// reset is the only initializer of a run: the iterate from the global
// initial guess, rank states from its residual — exact residuals, exact
// neighbor norms and Γ̃ (setup exchange, not counted), exact ghosts — the
// engine rewound to "every rank in the set", and the world rewound to the
// default cost model with cfg's fault plan and tracer installed. extDelta,
// lastSentNorm, the direct-solver scratch, the bodies' floats and every
// header field but slot and the two offsets are written before they are
// read in any run, so they are deliberately not cleared; the accumulator is
// all zero between sweeps, and reset clears what it wrote there as scratch.
//
// At a zero start (every entry of x₀ ±0) r₀ is b itself, read in place
// without reading A: each row of A·x₀ then sums to +0, since NewLayout
// refuses a non-finite entry of A, and b_i − (+0) is b_i, −0 and
// subnormals included. Any other x₀ takes b − A·x₀ into the accumulator.
func (st *runState) reset(b, x []float64, cfg Config, spec stepSpec) {
	l, w, e := st.l, st.w, &st.eng
	if len(b) != l.A.N || len(x) != l.A.N {
		panic(fmt.Sprintf("dmem: len(b) = %d and len(x) = %d, want n = %d", len(b), len(x), l.A.N))
	}
	copy(st.x, x)
	res := b // b − Ax in A's numbering, until the ghosts have it
	zeroStart := allZero(x)
	if !zeroStart {
		res = st.acc
		l.A.Residual(b, x, res)
	}
	e.list = e.list[:l.P]
	for p, rs := range st.states {
		for li, g := range l.rows(p) {
			rs.r[li] = res[g]
		}
		rs.norm = rs.computeNorm()
		st.norms[p] = rs.norm
		rs.relaxed, rs.gotMsg, rs.starved, rs.starveStamp = false, false, 0, 0
		e.inSet[p], e.sawMail[p] = true, false
	}
	// Ghosts: each ext slot's row of b − Ax, the value its owner's r holds.
	for _, rs := range st.states {
		for j, q := range rs.nbrs() {
			rs.gamma[j] = st.norms[q]
			rs.gammaTilde[j] = rs.norm
		}
		for i, g := range st.extGlob[rs.ext0:][:len(rs.z)] {
			rs.z[i] = res[g]
		}
		rs.lastTold = rs.norm
	}
	if !zeroStart {
		clear(res)
	}
	for p := range e.list {
		e.list[p] = int32(p) // step 1 runs every rank: no hold has been observed yet
	}
	clear(st.seqSeen)
	clear(st.sentTo)

	e.pinned = cfg.pinned(spec)
	e.starve, e.refreshAfter = spec.starvation && cfg.Faults != nil, cfg.refreshAfter()
	e.admitted, e.hist, e.calendar = e.admitted[:0], nil, nil
	if !e.pinned {
		e.hist = make([]int, 0, cfg.steps())
		if e.starve {
			e.calendar = make(map[int][]int32)
		}
	}

	w.Reset(rma.DefaultCostModel())
	w.InstallFaults(cfg.Faults, st.hold)
	w.SetTracer(cfg.Trace)
}

// allZero reports whether every entry of v is +0 or −0.
func allZero(v []float64) bool {
	for _, f := range v {
		if f != 0 {
			return false
		}
	}
	return true
}

// body returns the header of message m in rank rs's window and the floats
// it names, their lengths taken from rs's own layout ranges: bnd is as long
// as rs's ghost row for the sender, and a solve body's deltas as rs's
// boundary rows toward it (a residual body's are nil). A body sent in the
// last phase names them in the slab; one the fault layer held carries its
// copy (holdBody).
func (st *runState) body(rs *rankState, m *rma.Message) (pl *payload, bnd, deltas []float64) {
	if h, ok := m.Payload.(*heldBody); ok {
		return &h.payload, h.bnd, h.deltas
	}
	pl = m.Payload.(*payload)
	l, k := rs.l, int(rs.nbr0)+int(pl.slot)
	bnd = st.floats[pl.bnd:][:l.nbrExtOff[k+1]-l.nbrExtOff[k]]
	if m.Tag == rma.TagSolve {
		deltas = st.floats[pl.deltas:][:l.nbrBndOff[k+1]-l.nbrBndOff[k]]
	}
	return pl, bnd, deltas
}

// holdBody is the world's hold function (rma.World.InstallFaults): a body
// the fault layer holds back leaves with a copy of the floats it names, read
// as its receiver would read them, since its sender rewrites them before it
// lands.
func (st *runState) holdBody(m *rma.Message) {
	pl, bnd, deltas := st.body(st.states[m.To], m)
	m.Payload = &heldBody{payload: *pl, bnd: slices.Clone(bnd), deltas: slices.Clone(deltas)}
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
