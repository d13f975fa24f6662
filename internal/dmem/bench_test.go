package dmem

import (
	"fmt"
	"testing"

	"southwell/internal/problem"
)

// benchState builds the run state for a scaled Poisson problem.
func benchState(b testing.TB, n, ranks int) *runState {
	b.Helper()
	s, bb, x := buildCase(b, problem.Poisson2D(n, n), ranks, 1)
	st := newRunState(s)
	st.reset(bb, x, Config{}, stepSpec{})
	return st
}

// relaxAndStage is the per-rank inner loop of every method: one local
// Gauss-Seidel relaxation sweep plus the message-staging path (boundary
// residual collection into every neighbor's solve body, whose deltas are the
// extDelta rows the sweep wrote) that runs on every relaxation.
func relaxAndStage(st *runState, rs *rankState) {
	clear(rs.extDelta)
	rs.relaxSweep()
	for j := range rs.gamma {
		rs.gatherBnd(j, st.floats[rs.solve[j].bnd:])
	}
}

// BenchmarkRelaxSweep times relaxAndStage on rank 0 of a 16-rank layout of
// a 64² grid, and on the end-to-end benchmark's four shapes (e2eShapes,
// every one swept by Gauss-Seidel), where one op is one sweep of every rank
// from the residual reset left it (restored first, so the sweeps never run
// into denormals) and the benchmark reports ns per entry of A.
func BenchmarkRelaxSweep(b *testing.B) {
	b.Run("Poisson64/P=16/rank0", func(b *testing.B) {
		st := benchState(b, 64, 16)
		rs := st.states[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relaxAndStage(st, rs)
		}
	})
	for _, c := range e2eShapes() {
		b.Run(c.name, func(b *testing.B) {
			l, err := NewLayout(c.a, c.part, c.p)
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewSetup(l, LocalGS)
			if err != nil {
				b.Fatal(err)
			}
			bb, x := problem.ZeroBSystem(c.a, 1)
			st := newRunState(s)
			st.reset(bb, x, Config{}, stepSpec{})
			r0 := make([]float64, c.a.N)
			for p, rs := range st.states {
				copy(r0[l.rowOff[p]:], rs.r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p, rs := range st.states {
					copy(rs.r, r0[l.rowOff[p]:])
					relaxAndStage(st, rs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.a.NNZ()), "ns/entry")
		})
	}
}

// TestRelaxSweepAllocGate asserts what BenchmarkRelaxSweep only reports:
// relaxSweep and gatherBnd write into per-rank and
// per-neighbor buffers sized at set-up, so the inner loop allocates
// nothing, on every rank of the layout.
func TestRelaxSweepAllocGate(t *testing.T) {
	st := benchState(t, 64, 16)
	for p, rs := range st.states {
		if got := testing.AllocsPerRun(20, func() { relaxAndStage(st, rs) }); got != 0 {
			t.Errorf("rank %d: relax sweep + staging allocates %.1f allocs/op, want 0", p, got)
		}
	}
}

// BenchmarkLocalSolveCycled is the direct local solve with the cache shape a
// direct64 run gives it: one op is relaxDirect on each of the 64 ranks in
// turn, so every rank's factor (8.6 MB in all, past L2) is evicted before its
// next solve, as it is between two steps of a run. BenchmarkLDL/Solve, one
// 4 356-row block solved back to back, keeps its factor resident and reads
// faster per row than a run does. Reports ns per relaxed row; a round that
// allocates fails the benchmark.
func BenchmarkLocalSolveCycled(b *testing.B) {
	s, bb, x := direct64Setup(b)
	st := newRunState(s)
	st.reset(bb, x, Config{}, stepSpec{})
	rows := 0
	r0 := make([][]float64, len(st.states))
	for p, rs := range st.states {
		rows += len(rs.r)
		r0[p] = append([]float64(nil), rs.r...)
	}
	round := func() {
		for p, rs := range st.states {
			copy(rs.r, r0[p]) // relaxDirect leaves r = 0, and a zero right-hand side skips every column
			clear(rs.extDelta)
			rs.relaxDirect()
		}
	}
	if got := testing.AllocsPerRun(2, round); got != 0 {
		b.Fatalf("a round of direct local solves allocates %.1f/op, want 0", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkNewLayout times NewLayout on the end-to-end benchmark's four
// shapes (e2eShapes: matrix, partition and rank count as the benchmark
// builds them), at the shared pool's width.
func BenchmarkNewLayout(b *testing.B) {
	for _, c := range e2eShapes() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewLayout(c.a, c.part, c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepDS measures full Distributed Southwell solves of ten parallel
// steps (three phases each over the runtime) at several rank counts: fresh
// drops the parked state so every solve builds its own, reused solves again
// and again on one Setup's parked state.
func BenchmarkStepDS(b *testing.B) {
	for _, ranks := range []int{64, 256} {
		for _, state := range []string{"fresh", "reused"} {
			b.Run(fmt.Sprintf("P=%d/%s", ranks, state), func(b *testing.B) {
				s, bb, x := buildCase(b, problem.Poisson2D(100, 100), ranks, 1)
				cfg := Config{Steps: 10}
				DistributedSouthwell(s, bb, x, cfg) // builds and parks the state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if state == "fresh" {
						s.parked = nil
					}
					DistributedSouthwell(s, bb, x, cfg)
				}
			})
		}
	}
}
