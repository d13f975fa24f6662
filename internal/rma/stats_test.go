package rma

import "testing"

// TestCommCostGuard: a non-positive rank count must yield 0, never a NaN
// or ±Inf that would poison a table cell downstream.
func TestCommCostGuard(t *testing.T) {
	s := Stats{SolveMsgs: 7, ResMsgs: 3}
	for _, p := range []int{0, -1, -64} {
		if got := s.CommCost(p); got != 0 {
			t.Errorf("CommCost(%d) = %g, want 0", p, got)
		}
	}
	if got := s.CommCost(5); got != 2 {
		t.Errorf("CommCost(5) = %g, want 2", got)
	}
}
