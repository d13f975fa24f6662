package dmem

import "math"

// rankState is the dynamic per-rank state shared by all methods; the
// Southwell methods use the norm-estimate fields.
type rankState struct {
	rd   *RankData
	x    []float64
	r    []float64 // exact local residual
	norm float64   // exact local ‖r_p‖₂ (kept current at phase boundaries)

	gamma      []float64 // per neighbor: (estimate of) neighbor's norm
	gammaTilde []float64 // per neighbor: neighbor's estimate of my norm (DS)
	z          []float64 // per ext row: ghost residual estimate (DS)
	lastTold   float64   // last norm broadcast to neighbors (PS)
	sentTo     []bool    // per neighbor: wrote to them in the last send phase
	// Crossing-correction state (DS): the norm and boundary residuals this
	// rank sent when it last relaxed, used to mirror the estimate a
	// crossing neighbor computes from them (keeping Γ̃ exact; DESIGN.md §5).
	lastSentNorm float64
	sentBnd      [][]float64 // per neighbor: boundary residuals at send
	// seqSeen is, per neighbor, the newest payload sequence number whose
	// estimates were absorbed. Under fault injection a delayed message can
	// arrive after fresher information; its residual deltas are still
	// applied (they are additive and exact regardless of order), but its
	// stale Γ/Γ̃/ghost values must not overwrite newer ones. Always zero on
	// a perfect network (messages arrive in order, never late).
	seqSeen []int64

	extDelta []float64 // scratch, per ext row
	relaxed  bool      // relaxed in the current step
	// Starvation tracking, used only under fault injection (DS): gotMsg is
	// set by the absorb paths when any non-duplicate message is read, and
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

	// Persistent per-neighbor send buffers: message payloads point into
	// these, so the steady-state message path allocates nothing. A buffer
	// written in one phase is read by the receiver in the next phase and
	// not reused before the phase after that (solve sends refill only on
	// the next step's relax phase; explicit residual sends have their own
	// buffer), so sender reuse never races with receiver reads.
	sendDeltas [][]float64 // per neighbor: deltasFor output, len(BndExt[j])
	sendBnd    [][]float64 // per neighbor: boundaryResiduals output, len(MyBnd[j])
	resBnd     [][]float64 // per neighbor: explicit-update boundary residuals

	// direct, when non-nil, is the factorization of the local diagonal
	// block used by LocalDirect/LocalAuto; dscratch is its solve buffer.
	direct   localFactor
	dscratch []float64
}

// relaxLocal dispatches to the configured local solver and returns the
// flop count to charge.
func (rs *rankState) relaxLocal() float64 {
	if rs.direct != nil {
		return rs.relaxDirect()
	}
	return rs.relaxSweep()
}

// relaxDirect solves the local block exactly: x_p += A_pp^{-1} r_p, which
// zeroes the local residual and accumulates -A_qp d into extDelta. The
// charged cost is the factorization's actual solve cost (O(nnz(L)) for the
// sparse backend, 2m² for the dense one) plus the coupling scatter and the
// solution update — not the hard-coded dense estimate of old.
func (rs *rankState) relaxDirect() float64 {
	rd := rs.rd
	d := rs.dscratch
	rs.direct.Solve(rs.r, d)
	for li := range rs.r {
		rs.x[li] += d[li]
		rs.r[li] = 0
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d[li]
		}
	}
	return rs.direct.SolveFlops() + float64(rd.NNZ) + float64(rd.M())
}

// computeNorm returns ‖r‖₂ of the local residual. The naive
// sum-of-squares is kept as the only path that ever runs on finite sums —
// its bits are pinned by the equivalence suites — and a scaled two-pass
// fallback handles |r_i| ≳ 1e154, where v*v overflows to +Inf even though
// the true norm is representable.
func (rs *rankState) computeNorm() float64 {
	s := 0.0
	for _, v := range rs.r {
		s += v * v
	}
	if !math.IsInf(s, 1) {
		return math.Sqrt(s)
	}
	maxAbs := 0.0
	for _, v := range rs.r {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsInf(maxAbs, 1) {
		return math.Inf(1)
	}
	inv := 1 / maxAbs
	t := 0.0
	for _, v := range rs.r {
		sv := v * inv
		t += sv * sv
	}
	return maxAbs * math.Sqrt(t)
}

// relaxSweep performs one Gauss-Seidel sweep over the local rows,
// maintaining the exact local residual and accumulating residual deltas
// for external rows in extDelta (which the caller must have zeroed, and is
// responsible for draining into messages and/or the ghost layer).
// It returns the flop count for cost charging.
//
// The two inner loops walk the split-CSR arrays (layout.go): no per-nonzero
// class branch, no IsExt/ColExt indirection, uint32 column loads. Local
// entries touch only r[] and ext entries only extDelta[], and each class
// preserves source column order, so every memory location sees the exact
// update sequence of the interleaved walk — Gauss–Seidel bits unchanged.
func (rs *rankState) relaxSweep() float64 {
	rd := rs.rd
	for li := range rs.r {
		d := rs.r[li] / rd.Diag[li]
		rs.x[li] += d
		rs.r[li] = 0 // diagonal contribution: r_li -= a_ii * d exactly
		for k := rd.LocPtr[li]; k < rd.LocPtr[li+1]; k++ {
			rs.r[rd.LocCol[k]] -= rd.LocVal[k] * d
		}
		for k := rd.ExtPtr[li]; k < rd.ExtPtr[li+1]; k++ {
			rs.extDelta[rd.ExtCol[k]] -= rd.ExtVal[k] * d
		}
	}
	return float64(2*rd.NNZ + 3*rd.M())
}

// zeroExtDelta clears the scratch delta array (cheap: sized by ghost count).
func (rs *rankState) zeroExtDelta() {
	for i := range rs.extDelta {
		rs.extDelta[i] = 0
	}
}

// boundaryResiduals collects the residual values of this rank's boundary
// rows toward neighbor j into the persistent per-neighbor send buffer (the
// slice crosses the simulated network by reference and is only rewritten
// on this rank's next relax phase, after the receiver has read it).
func (rs *rankState) boundaryResiduals(j int) []float64 {
	out := rs.sendBnd[j]
	for k, li := range rs.rd.MyBnd[j] {
		out[k] = rs.r[li]
	}
	return out
}

// resBoundaryResiduals is boundaryResiduals into the separate buffer used
// by explicit residual updates, which are sent one phase after the solve
// message: the solve buffer may still be in flight to the same neighbor.
func (rs *rankState) resBoundaryResiduals(j int) []float64 {
	out := rs.resBnd[j]
	for k, li := range rs.rd.MyBnd[j] {
		out[k] = rs.r[li]
	}
	return out
}

// deltasFor collects extDelta values for neighbor j's boundary slots into
// the persistent per-neighbor send buffer.
func (rs *rankState) deltasFor(j int) []float64 {
	out := rs.sendDeltas[j]
	for k, e := range rs.rd.BndExt[j] {
		out[k] = rs.extDelta[e]
	}
	return out
}

// applyDeltas adds incoming residual deltas from neighbor j to the local
// boundary rows (same static ordering on both sides; see layout tests).
func (rs *rankState) applyDeltas(j int, deltas []float64) {
	for k, li := range rs.rd.MyBnd[j] {
		rs.r[li] += deltas[k]
	}
}

// overwriteGhost replaces the ghost residuals of neighbor j's boundary rows
// with the values the neighbor sent.
func (rs *rankState) overwriteGhost(j int, bnd []float64) {
	for k, e := range rs.rd.BndExt[j] {
		rs.z[e] = bnd[k]
	}
}

// updateGhostAndGamma applies this rank's own extDelta contribution to the
// ghost layer for neighbor j and adjusts the norm estimate Γ[j] by the
// boundary energy change — the communication-free estimate improvement at
// the heart of Distributed Southwell (§3).
func (rs *rankState) updateGhostAndGamma(j int) {
	adj := 0.0
	for _, e := range rs.rd.BndExt[j] {
		old := rs.z[e]
		nw := old + rs.extDelta[e]
		adj += nw*nw - old*old
		rs.z[e] = nw
	}
	g2 := rs.gamma[j]*rs.gamma[j] + adj
	if g2 < 0 {
		g2 = 0
	}
	rs.gamma[j] = math.Sqrt(g2)
}
