package solvers

import (
	"container/heap"
	"math"

	"southwell/internal/sparse"
)

// maxHeap orders the rows by priority, largest first: keys is the heap of
// row ids and pos[i] is row i's index in it, so a changed prio[i] is
// restored with heap.Fix(h, h.pos[i]). Every row stays in the heap; Push and
// Pop only complete heap.Interface.
type maxHeap struct {
	prio []float64
	keys []int
	pos  []int
}

func (h *maxHeap) Len() int           { return len(h.keys) }
func (h *maxHeap) Less(i, j int) bool { return h.prio[h.keys[i]] > h.prio[h.keys[j]] }
func (h *maxHeap) Swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]], h.pos[h.keys[j]] = i, j
}
func (h *maxHeap) Push(any) { panic("solvers: maxHeap holds every row") }
func (h *maxHeap) Pop() any { panic("solvers: maxHeap holds every row") }

// SequentialSouthwell runs the (Gauss-)Southwell method: each step relaxes
// the single row with the largest |r_i| (§2.2). The max is tracked with an
// indexed heap so each relaxation costs O(deg · log n). Every relaxation is
// its own parallel step.
func SequentialSouthwell(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	tr := &Trace{Method: "SW"}
	n := a.N
	s := newState(a, b, x)
	h := &maxHeap{prio: make([]float64, n), keys: make([]int, n), pos: make([]int, n)}
	for i, v := range s.r {
		h.prio[i], h.keys[i], h.pos[i] = math.Abs(v), i, i
	}
	heap.Init(h)
	for !opt.reached(s.norm()) {
		i := h.keys[0]
		if h.prio[i] == 0 {
			// Residual exactly zero: nothing to relax.
			return tr
		}
		s.relaxRow(i)
		cols, _ := a.Row(i)
		for _, j := range cols {
			h.prio[j] = math.Abs(s.r[j])
			heap.Fix(h, h.pos[j])
		}
		rec := StepRecord{Step: len(tr.Steps) + 1, Relaxations: 1, CumRelax: s.relax, ResNorm: s.norm()}
		tr.Steps = append(tr.Steps, rec)
		if opt.done(rec, n) {
			return tr
		}
	}
	return tr
}

// parallelSouthwellCriterion reports whether row i should relax given its
// own magnitude ri and the magnitudes held for its neighborhood: ri must be
// maximal, with exact ties broken toward the lower index so that the
// relaxed set stays independent and at least one row always qualifies.
func winsOver(ri float64, i int, rj float64, j int) bool {
	// Bit-exact by design: both rows evaluate the same pair, so the
	// tie-break must agree exactly or the relaxed set loses independence.
	if ri != rj { //dslint:ignore floatcmp

		return ri > rj
	}
	return i < j
}

// ParallelSouthwell runs the scalar Parallel Southwell method (§2.3): one
// parallel step relaxes every row whose residual magnitude is maximal
// within its neighborhood (the Parallel Southwell criterion, evaluated with
// exact residuals).
func ParallelSouthwell(a *sparse.CSR, b, x []float64, opt Options) *Trace {
	tr := &Trace{Method: "Par SW"}
	n := a.N
	s := newState(a, b, x)
	selected := make([]int, 0, n)
	for !opt.reached(s.norm()) {
		selected = selected[:0]
		for i := 0; i < n; i++ {
			ri := math.Abs(s.r[i])
			if ri == 0 {
				continue
			}
			wins := true
			cols, _ := a.Row(i)
			for _, j := range cols {
				if int(j) == i {
					continue
				}
				if !winsOver(ri, i, math.Abs(s.r[j]), int(j)) {
					wins = false
					break
				}
			}
			if wins {
				selected = append(selected, i)
			}
		}
		if len(selected) == 0 {
			// All residuals zero (or isolated ties resolved away): done.
			return tr
		}
		// The selected set is independent, so relaxing sequentially equals
		// relaxing simultaneously.
		for _, i := range selected {
			s.relaxRow(i)
		}
		rec := StepRecord{
			Step:        len(tr.Steps) + 1,
			Relaxations: len(selected),
			CumRelax:    s.relax,
			ResNorm:     s.norm(),
		}
		tr.Steps = append(tr.Steps, rec)
		if opt.done(rec, n) {
			return tr
		}
	}
	return tr
}
