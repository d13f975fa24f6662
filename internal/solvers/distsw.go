package solvers

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"southwell/internal/sparse"
)

// distSW is the state of scalar Distributed Southwell. Every per-neighbour
// quantity of row i lives at the CSR position k of edge (i, j), and j's write
// to i is read from j's side of the same edge, mirror[k]. Diagonal positions
// are skipped.
type distSW struct {
	*state
	diag   []float64
	mirror []int32 // position of (j, i) for the entry (i, j) at k
	// Per edge (i, j): z is i's estimate of j's residual value (a signed
	// ghost, improved locally), gt is Γ̃ — j's estimate of |r_i|, kept exactly
	// (§3) — sent is the delta i last sent j, and wrote marks a write from i
	// to j in the current phase.
	z, gt, sent []float64
	wrote       []bool
	sentR       []float64 // per row: own residual value in this phase's writes
	selected    []int
	budget      int        // MaxRelax, for ExactBudget
	rng         *rand.Rand // ExactBudget's final-step subset; nil otherwise

	solveMsgs, resMsgs int
}

func newDistSW(a *sparse.CSR, b, x []float64, opt Options) *distSW {
	s := newState(a, b, x)
	nnz := a.NNZ()
	d := &distSW{
		state: s, diag: a.Diag(), mirror: mirrors(a),
		z: make([]float64, nnz), gt: make([]float64, nnz), sent: make([]float64, nnz),
		wrote: make([]bool, nnz), sentR: make([]float64, a.N),
		selected: make([]int, 0, a.N), budget: opt.maxRelax(a.N),
	}
	for i := range a.N {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.z[k] = s.r[a.Col[k]] // exact at startup
			d.gt[k] = math.Abs(s.r[i])
		}
	}
	if opt.ExactBudget {
		d.rng = rand.New(rand.NewSource(opt.Seed))
	}
	return d
}

// mirrors returns, for each stored entry (i, j) of a, the position of (j, i).
// One pass over the rows in order: the rows holding column j are met in
// ascending order, which is the column order of row j, so one cursor per row
// finds every mirror. It panics naming the first entry without one.
func mirrors(a *sparse.CSR) []int32 {
	mirror := make([]int32, a.NNZ())
	next := slices.Clone(a.RowPtr[:a.N]) // next[j]: row j's first unclaimed entry
	unmatched := func(i, j int32) {
		panic(fmt.Sprintf("solvers: entry (%d, %d) has no mirror (%d, %d): the matrix is not structurally symmetric", i, j, j, i))
	}
	for i := range int32(a.N) {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			m := next[j]
			switch {
			case m < a.RowPtr[j+1] && a.Col[m] < i: // row Col[m] passed without claiming it
				unmatched(j, a.Col[m])
			case m == a.RowPtr[j+1] || a.Col[m] != i:
				unmatched(i, j)
			}
			mirror[k] = m
			next[j]++
		}
	}
	return mirror
}

// DistributedSouthwell runs the scalar form of Distributed Southwell
// (§3, Figure 5): one equation per simulated process, synchronous parallel
// steps with the three phases of Algorithm 3 — relax and write, detect
// deadlock risk and write explicit updates, absorb writes. Rows decide to
// relax using *estimated* neighbor residuals, estimates are improved
// locally via the ghost values, and explicit residual updates flow only
// when a neighbor's estimate of a row exceeds the row's actual residual.
//
// Every write to a neighbor is one message, counted in the trace as solve
// (relaxation) or residual (explicit update) communication. The matrix must
// be structurally symmetric; it panics otherwise.
func DistributedSouthwell(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	tr := &Trace{Method: "Dist SW"}
	d := newDistSW(a, b, x, opt)
	for !opt.reached(d.norm()) {
		relaxed := d.step()
		// No relaxation was possible: either converged, or stagnated while
		// estimates were being corrected. Continue only if estimates
		// changed; with Γ̃ exactness the very next step must relax, so a
		// second empty step means the residual is zero.
		if relaxed == 0 && (d.norm() == 0 || tr.NumSteps() > 0 && tr.Final().Relaxations == 0) {
			return tr
		}
		rec := StepRecord{
			Step:        len(tr.Steps) + 1,
			Relaxations: relaxed,
			CumRelax:    d.relax,
			ResNorm:     d.norm(),
			SolveMsgs:   d.solveMsgs,
			ResMsgs:     d.resMsgs,
		}
		tr.Steps = append(tr.Steps, rec)
		if opt.done(rec, a.N) {
			return tr
		}
	}
	return tr
}

// step runs one parallel step and returns the number of rows it relaxed.
func (d *distSW) step() int {
	a, r := d.a, d.r
	// Phase 1: decide (snapshot semantics) and relax.
	d.selected = d.selected[:0]
	for i := range a.N {
		ri := math.Abs(r[i])
		if ri == 0 {
			continue
		}
		wins := true
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := int(a.Col[k]); j != i && !winsOver(ri, i, math.Abs(d.z[k]), j) {
				wins = false
				break
			}
		}
		if wins {
			d.selected = append(d.selected, i)
		}
	}
	if d.rng != nil {
		if remaining := d.budget - d.relax; len(d.selected) > remaining {
			// Final parallel step: relax a random subset of the selected
			// rows so the total relaxation count is exact (§4.1).
			d.rng.Shuffle(len(d.selected), func(a, b int) {
				d.selected[a], d.selected[b] = d.selected[b], d.selected[a]
			})
			d.selected = d.selected[:remaining]
		}
	}
	for _, i := range d.selected {
		dx := r[i] / d.diag[i]
		d.x[i] += dx
		old := r[i]
		r[i] -= d.diag[i] * dx // exactly zero
		d.normSq += r[i]*r[i] - old*old
		d.relax++
		d.sentR[i] = r[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				continue
			}
			delta := -a.Val[k] * dx
			d.z[k] += delta // local estimate improvement: no communication
			d.sent[k] = delta
			d.gt[k] = math.Abs(r[i])
			d.wrote[k] = true
			d.solveMsgs++
		}
	}
	d.deliver(true)

	// Phase 2: deadlock-risk detection — if a neighbor's estimate of my
	// residual exceeds my actual residual, correct it explicitly.
	for i := range a.N {
		ri := math.Abs(r[i])
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) != i && d.gt[k] > ri {
				d.gt[k] = ri
				d.sentR[i] = r[i]
				d.wrote[k] = true
				d.resMsgs++
			}
		}
	}
	d.deliver(false)
	return len(d.selected)
}

// deliver absorbs the phase's writes receiver by receiver, each in ascending
// sender order. A write from j to i carries j's residual value sentR[j], j's
// estimate of r_i z[mirror], and in phase 1 the delta sent[mirror]. z[mirror]
// is read here rather than copied at send time: it changes only when j
// absorbs a write from i, and the one case that reads it has none.
func (d *distSW) deliver(solve bool) {
	a, r := d.a, d.r
	for i := range a.N {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j, m := a.Col[k], d.mirror[k]
			if int(j) == i || !d.wrote[m] {
				continue
			}
			crossing := d.wrote[k]
			if solve {
				old := r[i]
				r[i] += d.sent[m]
				d.normSq += r[i]*r[i] - old*old
				if crossing {
					// Both endpoints relaxed in the same phase. The sender's
					// reported residual predates this row's delta to it, so
					// re-apply that delta on top — the "better estimate than
					// doing nothing at all" of §3. The sender performs the
					// mirrored correction, so Γ̃ stays exact: its estimate of
					// this row is its sentR-base plus the delta it sent.
					d.z[k] = d.sentR[j] + d.sent[k]
					d.gt[k] = math.Abs(d.sentR[i] + d.sent[m])
					continue
				}
			}
			d.z[k] = d.sentR[j]
			// Crossing explicit updates carry no deltas; this row's own
			// write supersedes the stale estimate in the message.
			if !crossing {
				d.gt[k] = math.Abs(d.z[m])
			}
		}
	}
	clear(d.wrote)
}
