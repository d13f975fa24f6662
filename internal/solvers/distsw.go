package solvers

import (
	"math"
	"math/rand"

	"southwell/internal/sparse"
)

// DistStats counts the communication a distributed run would incur,
// split the way the paper's Table 3 splits it.
type DistStats struct {
	SolveMsgs    int // messages carrying relaxation updates
	ResidualMsgs int // explicit residual-norm update messages (deadlock avoidance)
}

// TotalMsgs returns all messages sent.
func (d DistStats) TotalMsgs() int { return d.SolveMsgs + d.ResidualMsgs }

// debugDistSW enables per-step verification of the Γ̃ exactness invariant
// (set by tests; too costly for production runs).
var debugDistSW = false

// distRow is the per-row ("per-process", in the scalar form) state of
// Distributed Southwell: the row's exact residual plus, per neighbor slot
// k, the ghost residual estimate z (a signed copy of the neighbor's
// residual, locally updated), Γ = |z| (the norm estimate the paper keeps
// for block form), and Γ̃ = the estimate this row's norm that the neighbor
// holds (exactly maintained; see §3).
type distRow struct {
	nbr        []int     // neighbor row indices
	offd       []float64 // a_{j,i} for each neighbor j (symmetric: = a_{i,j})
	diag       float64
	z          []float64 // ghost: estimate of each neighbor's residual value
	gammaTilde []float64 // neighbor's estimate of |r_i|
	sentDelta  []float64 // per neighbor: delta sent in the current phase
	lastSentR  float64   // own residual value included in the last send
	slotOf     map[int]int
}

// distMsg is what one row writes into a neighbor's window.
type distMsg struct {
	from     int
	delta    float64 // increment to the receiver's residual (0 for explicit updates)
	hasDelta bool
	senderR  float64 // sender's residual value at send time (ghost sync)
	estRecv  float64 // sender's estimate of the receiver's residual value
}

// DistributedSouthwell runs the scalar form of Distributed Southwell
// (§3, Figure 5): one equation per simulated process, synchronous parallel
// steps with the three phases of Algorithm 3 — relax and write, detect
// deadlock risk and write explicit updates, absorb writes. Rows decide to
// relax using *estimated* neighbor residuals, estimates are improved
// locally via the ghost values, and explicit residual updates flow only
// when a neighbor's estimate of a row exceeds the row's actual residual.
//
// The returned stats count one message per write to a neighbor, tagged as
// solve (relaxation) or residual (explicit update) communication.
func DistributedSouthwell(a *sparse.CSR, b, x []float64, opt Options) (*Trace, DistStats) {
	tr := &Trace{Method: "Dist SW"}
	n := a.N
	s := newState(a, b, x)
	var stats DistStats

	rows := make([]distRow, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		row := distRow{slotOf: make(map[int]int)}
		for k, j := range cols {
			if j == i {
				row.diag = vals[k]
				continue
			}
			row.slotOf[j] = len(row.nbr)
			row.nbr = append(row.nbr, j)
			row.offd = append(row.offd, vals[k])
			row.z = append(row.z, s.r[j]) // exact at startup
			row.gammaTilde = append(row.gammaTilde, math.Abs(s.r[i]))
			row.sentDelta = append(row.sentDelta, 0)
		}
		rows[i] = row
	}

	inbox := make([][]distMsg, n)
	sentTo := make(map[[2]int]bool) // (from,to) pairs written this phase
	var rng *rand.Rand
	if opt.ExactBudget {
		rng = rand.New(rand.NewSource(opt.Seed))
	}

	deliver := func() {
		for i := range inbox {
			for _, m := range inbox[i] {
				row := &rows[i]
				k := row.slotOf[m.from]
				if m.hasDelta {
					old := s.r[i]
					s.r[i] += m.delta
					s.normSq += s.r[i]*s.r[i] - old*old
				}
				crossing := sentTo[[2]int{i, m.from}]
				switch {
				case crossing && m.hasDelta:
					// Both endpoints relaxed in the same phase. The sender's
					// reported residual predates this row's delta to it, so
					// re-apply that delta on top — the "better estimate than
					// doing nothing at all" of §3. The sender performs the
					// mirrored correction, so Γ̃ stays exact: its estimate of
					// this row is its senderR-base plus the delta it sent.
					row.z[k] = m.senderR + row.sentDelta[k]
					row.gammaTilde[k] = math.Abs(row.lastSentR + m.delta)
				case crossing:
					// Crossing explicit updates carry no deltas; this row's
					// own write supersedes the stale estimate in the message.
					row.z[k] = m.senderR
				default:
					row.z[k] = m.senderR
					row.gammaTilde[k] = math.Abs(m.estRecv)
				}
			}
			inbox[i] = inbox[i][:0]
		}
		for k := range sentTo {
			delete(sentTo, k)
		}
	}

	selected := make([]int, 0, n)
	for {
		// Phase 1: decide (snapshot semantics) and relax.
		selected = selected[:0]
		for i := 0; i < n; i++ {
			ri := math.Abs(s.r[i])
			if ri == 0 {
				continue
			}
			row := &rows[i]
			wins := true
			for k, j := range row.nbr {
				if !winsOver(ri, i, math.Abs(row.z[k]), j) {
					wins = false
					break
				}
			}
			if wins {
				selected = append(selected, i)
			}
		}
		if opt.ExactBudget {
			if remaining := opt.maxRelax(n) - s.relax; len(selected) > remaining {
				// Final parallel step: relax a random subset of the selected
				// rows so the total relaxation count is exact (§4.1).
				rng.Shuffle(len(selected), func(a, b int) {
					selected[a], selected[b] = selected[b], selected[a]
				})
				selected = selected[:remaining]
			}
		}
		for _, i := range selected {
			row := &rows[i]
			d := s.r[i] / row.diag
			s.x[i] += d
			old := s.r[i]
			s.r[i] -= row.diag * d // exactly zero
			s.normSq += s.r[i]*s.r[i] - old*old
			s.relax++
			row.lastSentR = s.r[i]
			for k, j := range row.nbr {
				delta := -row.offd[k] * d
				row.z[k] += delta // local estimate improvement: no communication
				row.sentDelta[k] = delta
				row.gammaTilde[k] = math.Abs(s.r[i])
				inbox[j] = append(inbox[j], distMsg{
					from: i, delta: delta, hasDelta: true,
					senderR: s.r[i], estRecv: row.z[k],
				})
				sentTo[[2]int{i, j}] = true
				stats.SolveMsgs++
			}
		}
		relaxed := len(selected)
		deliver()

		// Phase 2: deadlock-risk detection — if a neighbor's estimate of my
		// residual exceeds my actual residual, correct it explicitly.
		for i := 0; i < n; i++ {
			row := &rows[i]
			ri := math.Abs(s.r[i])
			for k, j := range row.nbr {
				if row.gammaTilde[k] > ri {
					row.gammaTilde[k] = ri
					inbox[j] = append(inbox[j], distMsg{
						from: i, senderR: s.r[i], estRecv: row.z[k],
					})
					sentTo[[2]int{i, j}] = true
					stats.ResidualMsgs++
				}
			}
		}
		deliver()

		if debugDistSW && !checkGammaTildeExact(rows) {
			panic("solvers: Γ̃ exactness invariant violated")
		}

		if relaxed == 0 {
			// No relaxation was possible: either converged, or stagnated
			// while estimates were being corrected. Continue only if
			// estimates changed; with Γ̃ exactness the very next step must
			// relax, so a second empty step means the residual is zero.
			if s.norm() == 0 || tr.lastStepEmpty() {
				return tr, stats
			}
		}
		rec := StepRecord{
			Step:        len(tr.Steps) + 1,
			Relaxations: relaxed,
			CumRelax:    s.relax,
			ResNorm:     s.norm(),
		}
		tr.Steps = append(tr.Steps, rec)
		if opt.done(rec, n) {
			return tr, stats
		}
	}
}

func (t *Trace) lastStepEmpty() bool {
	return len(t.Steps) > 0 && t.Steps[len(t.Steps)-1].Relaxations == 0
}

// checkGammaTildeExact verifies the paper's §3 claim that Γ̃ is exactly
// known: for every edge (i, j), row i's record of "what j estimates my
// residual to be" must equal |z_j[i]|, j's actual estimate. Used by tests.
func checkGammaTildeExact(rows []distRow) bool {
	for i := range rows {
		for k, j := range rows[i].nbr {
			kj := rows[j].slotOf[i]
			// Bit-exact by design: §3 claims Γ̃ is *exactly* known, so the
			// invariant check must not tolerate any drift.
			if rows[i].gammaTilde[k] != math.Abs(rows[j].z[kj]) { //dslint:ignore floatcmp

				return false
			}
		}
	}
	return true
}
