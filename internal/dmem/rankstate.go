package dmem

import (
	"math"

	"southwell/internal/spdirect"
)

// rankState is the dynamic per-rank state shared by all methods; the
// Southwell methods use the norm-estimate fields.
type rankState struct {
	// The rank's share of the layout: l holds the arrays, p is the rank, and
	// row0, nbr0 and ext0 are its first row, neighbor position and ext slot
	// there (Layout.rowOff/nbrOff/extOff[p], kept because every kernel cuts
	// its slices at them). m, the degree and the ext count are len(r),
	// len(gamma) and len(z). st is the run state the rank belongs to: its
	// kernels add their corrections to the iterate there (runState.x, in
	// A's numbering: the rank's share is its rows), read the ext slots'
	// global ids and the accumulator (relaxSweep) and the Setup's external
	// couplings (relaxDirect).
	l                   *Layout
	st                  *runState
	p, row0, nbr0, ext0 int32

	r    []float64 // exact local residual
	norm float64   // exact local ‖r_p‖₂ (kept current at phase boundaries)

	gamma      []float64 // per neighbor: (estimate of) neighbor's norm
	gammaTilde []float64 // per neighbor: neighbor's estimate of my norm (DS)
	z          []float64 // per ext row: ghost residual estimate (DS)
	lastTold   float64   // last norm broadcast to neighbors (PS)
	sentTo     []bool    // per neighbor: wrote to them in the last send phase
	// Crossing-correction state (DS): the norm this rank sent when it last
	// relaxed; with the boundary residuals still where solve[j].bnd names
	// them it mirrors the estimate a crossing neighbor computes from them
	// (keeping Γ̃ exact; DESIGN.md §5).
	lastSentNorm float64
	// seqSeen is, per neighbor, the newest payload sequence number whose
	// estimates were absorbed. Under fault injection a delayed message can
	// arrive after fresher information; its residual deltas are still
	// applied (they are additive and exact regardless of order), but its
	// stale Γ/Γ̃/ghost values must not overwrite newer ones. Always zero on
	// a perfect network (messages arrive in order, never late).
	seqSeen []int32

	extDelta []float64 // scratch, per ext row
	// nnz is the rank's off-diagonal count as NewSetup recorded it, for the
	// relaxations' flop charge. It sits in the padding before starved.
	nnz     int32
	relaxed bool // relaxed in the current step
	// Starvation tracking, used only under fault injection (DS): gotMsg is
	// set by the absorb paths when any message is read, and
	// starved counts consecutive steps with neither a relaxation nor a
	// receipt. A starving rank re-announces its exact residual state so
	// fault-desynced Γ/Γ̃ estimates become exact again (see distsw.go).
	gotMsg  bool
	starved int
	// starveStamp is the step through which starved is materialized: a
	// sleeping rank's counter would grow by one per step, so its true value
	// at the end of step s is starved + (s - starveStamp), reconciled when
	// the rank wakes (stepEngine.admit). Always the last completed step for
	// a rank that executed it; unused on a perfect network.
	starveStamp int

	// Message bodies, per neighbor — the send buffers themselves: a pointer
	// to one crosses the simulated network, so the steady-state message path
	// allocates nothing. A body written in one phase is read by the receiver
	// in the next and not rewritten before the phase after that (solve bodies
	// refill only on the next step's relax phase; explicit updates, sent one
	// phase later while the solve body may still be in flight, have their
	// own), so sender reuse never races with receiver reads. A solve body's
	// deltas are no copy but the neighbor's extDelta row (ghost), which only
	// the clear opening the next relaxation rewrites.
	solve []payload // relaxation messages: deltas (extDelta row) and bnd
	res   []payload // explicit residual updates: bnd

	// direct, when f is non-nil, is the shared factorization of the local
	// diagonal block (LocalDirect) with this rank's private solve scratch.
	direct struct {
		f       *spdirect.Factor
		scratch []float64
	}
}

// payload is the one message body (Algorithm 3, line 17, is the full set;
// the other methods use a subset): residual deltas for the receiver's
// boundary rows, the sender's boundary residual values (refreshing the
// receiver's ghost layer z), the sender's exact norm, and the sender's
// estimate of the receiver's norm (which the receiver stores in Γ̃). It is
// a 32-byte header: bnd and deltas are the offsets of those floats in the
// run state's slab (runState.floats), and their lengths are the receiver's
// own layout ranges (runState.body). runState binds bnd, deltas (a solve
// body's is the sender's extDelta row) and slot once at set-up; a send
// rewrites the rest. A residual body carries no deltas.
type payload struct {
	norm    float64
	estRecv float64
	seq     int32 // sender sequence number (stale-estimate guard; see seqSeen)
	slot    int32 // the sender's position among the receiver's neighbors (newRunState assigns it)
	bnd     int32 // offset of the boundary residual values in the slab
	deltas  int32 // offset of the residual deltas in the slab (solve bodies)
}

// heldBody is a body the fault layer holds back past its phase: the header
// and a copy of the floats it names, taken at the boundary that held it,
// since the sender rewrites deltas (its extDelta row) on its next
// relaxation and bnd on its next send (runState.holdBody).
type heldBody struct {
	payload
	bnd, deltas []float64
}

// relaxLocal dispatches to the configured local solver and returns the
// flop count to charge.
func (rs *rankState) relaxLocal() float64 {
	if rs.direct.f != nil {
		return rs.relaxDirect()
	}
	return rs.relaxSweep()
}

// relaxDirect solves the local block exactly: x_p += A_pp^{-1} r_p, which
// zeroes the local residual and accumulates -A_qp d into extDelta. The
// solve runs in place, so d overwrites r and each row reads its d before
// zeroing it; x_p is the rank's rows of the iterate, in A's numbering. The
// charged cost is the factorization's actual solve cost, O(nnz(L)), plus
// the coupling scatter and the solution update.
func (rs *rankState) relaxDirect() float64 {
	r, x, extDelta := rs.r, rs.st.x, rs.extDelta
	m := len(r)
	rs.direct.f.SolveWith(r, r, rs.direct.scratch)
	// Operands are locals cut once per row (DESIGN.md §10, "Kernel form").
	ext := rs.st.ext
	glob := rs.l.glob[rs.row0:][:m]
	extPtr, extCol, extVal := ext.ptr[rs.row0:][:m+1], ext.col, ext.val
	for li, dl := range r {
		x[glob[li]] += dl
		r[li] = 0
		lo, hi := extPtr[li], extPtr[li+1]
		cols := extCol[lo:hi]
		vals := extVal[lo:hi][:len(cols)]
		for k, c := range cols {
			extDelta[c] -= vals[k] * dl
		}
	}
	return rs.direct.f.SolveFlops() + float64(rs.nnz) + float64(m)
}

// computeNorm returns ‖r‖₂ of the local residual.
func (rs *rankState) computeNorm() float64 { return norm2(rs.r) }

// norm2 returns ‖v‖₂, of a rank's residual or of the rank norms. The naive
// sum-of-squares is kept as the only path that ever runs on finite sums —
// its bits are pinned by the equivalence suites — and a scaled two-pass
// fallback handles |v_i| ≳ 1e154, where v*v overflows to +Inf even though
// the true norm is representable.
func norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if !math.IsInf(s, 1) {
		return math.Sqrt(s)
	}
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsInf(maxAbs, 1) {
		return math.Inf(1)
	}
	inv := 1 / maxAbs
	t := 0.0
	for _, x := range v {
		sx := x * inv
		t += sx * sx
	}
	return maxAbs * math.Sqrt(t)
}

// relaxSweep performs one Gauss-Seidel sweep over the local rows,
// maintaining the exact local residual and accumulating residual deltas
// for external rows in extDelta (which the caller is responsible for
// draining into messages and/or the ghost layer; the sweep adds to what it
// holds). It returns the flop count for cost charging.
//
// The sweep runs in A's own numbering: on entry it copies r and extDelta
// into the run state's accumulator (runState.acc, n floats indexed by
// global row) at the rank's rows and at the rows behind its ext slots
// (runState.extGlob); each row is then one walk over its entries of A,
// A.Col indexing the accumulator directly, and adds its correction to the
// iterate (runState.x) at the same global row; on exit it copies r and
// extDelta back and zeroes what it touched. The rank's rows couple only to
// those rows, and each of them is one location of r or extDelta, so every
// location sees the update sequence it would see in place. The entry copy
// assigns, so a -0 survives it and nothing the accumulator held before is
// read; the clear on exit leaves it all zero between sweeps. a_ii is read
// where A stores it, the row's one entry in column g (NewLayout refuses a
// row with none or two, or with one that is zero or not finite): a scan of
// the row finds it before the walk. The row's own entry takes a_ii·d on the
// way and is then set to zero: the diagonal contribution r_li − a_ii·d,
// exactly.
//
// Operands are locals cut once per row (DESIGN.md §10, "Kernel form"); the
// visit order and the one a -= b*c expression per update may not change.
func (rs *rankState) relaxSweep() float64 {
	l, st := rs.l, rs.st
	r, extDelta := rs.r, rs.extDelta
	m := len(r)
	x, acc := st.x, st.acc
	glob := l.glob[rs.row0:][:m]
	ghosts := st.extGlob[rs.ext0:][:len(extDelta)]
	for li, g := range glob {
		acc[g] = r[li]
	}
	for s, g := range ghosts {
		acc[g] = extDelta[s]
	}
	rowPtr, col, val := l.A.RowPtr, l.A.Col, l.A.Val
	for _, g := range glob {
		lo, hi := rowPtr[g], rowPtr[g+1]
		cols := col[lo:hi]
		vals := val[lo:hi][:len(cols)]
		kd := 0
		for cols[kd] != g {
			kd++
		}
		d := acc[g] / vals[kd]
		x[g] += d
		for k, c := range cols {
			acc[c] -= vals[k] * d
		}
		acc[g] = 0
	}
	for li, g := range glob {
		r[li], acc[g] = acc[g], 0
	}
	for s, g := range ghosts {
		extDelta[s], acc[g] = acc[g], 0
	}
	return float64(2*int(rs.nnz) + 3*m)
}

// nbrs returns the rank's neighbor ranks, ascending: neighbor position j is
// nbrs()[j].
func (rs *rankState) nbrs() []int32 { return rs.l.nbrs[rs.nbr0:][:len(rs.gamma)] }

// ghost returns neighbor j's row of the ghost layer and of extDelta: the ext
// slots of the rows j owns are one contiguous range (Layout.nbrExtOff), in
// the order of j's message bodies, so a ghost refresh is a copy and a solve
// body's deltas are the extDelta row itself.
func (rs *rankState) ghost(j int) (z, delta []float64) {
	off := rs.l.nbrExtOff[int(rs.nbr0)+j:]
	lo, hi := off[0]-rs.ext0, off[1]-rs.ext0
	return rs.z[lo:hi], rs.extDelta[lo:hi]
}

// myBnd returns the local rows that couple into neighbor j, ascending.
func (rs *rankState) myBnd(j int) []int32 {
	off := rs.l.nbrBndOff[int(rs.nbr0)+j:]
	return rs.l.myRows[off[0]:off[1]]
}

// gatherBnd collects the residual values of this rank's boundary rows toward
// neighbor j into out, a message body's bnd in the slab; it returns how many.
func (rs *rankState) gatherBnd(j int, out []float64) int {
	rows := rs.myBnd(j)
	out = out[:len(rows)]
	for k, li := range rows {
		out[k] = rs.r[li]
	}
	return len(rows)
}

// winsAll is the relax decision every Southwell variant makes: a nonzero
// norm that beats every neighbor's (estimated) norm under winsOver.
func (rs *rankState) winsAll() bool {
	if !(rs.norm > 0) {
		return false
	}
	for j, q := range rs.nbrs() {
		if !winsOver(rs.norm, int(rs.p), rs.gamma[j], int(q)) {
			return false
		}
	}
	return true
}

// applyDeltas adds incoming residual deltas from neighbor j to the local
// boundary rows (same static ordering on both sides; see layout tests).
func (rs *rankState) applyDeltas(j int, deltas []float64) {
	for k, li := range rs.myBnd(j) {
		rs.r[li] += deltas[k]
	}
}

// updateGhostAndGamma applies this rank's own extDelta contribution to the
// ghost layer for neighbor j and adjusts the norm estimate Γ[j] by the
// boundary energy change — the communication-free estimate improvement at
// the heart of Distributed Southwell (§3).
func (rs *rankState) updateGhostAndGamma(j int) {
	adj := 0.0
	z, delta := rs.ghost(j)
	for k, old := range z {
		nw := old + delta[k]
		adj += nw*nw - old*old
		z[k] = nw
	}
	g2 := rs.gamma[j]*rs.gamma[j] + adj
	if g2 < 0 {
		g2 = 0
	}
	rs.gamma[j] = math.Sqrt(g2)
}
