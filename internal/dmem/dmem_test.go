package dmem

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"southwell/internal/parallel"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// buildCase returns the P-way setup of a scaled matrix, one Gauss-Seidel
// sweep per relaxation (the paper's setting), and the paper's
// random-x/zero-b system.
func buildCase(t testing.TB, a *sparse.CSR, p int, seed int64) (*Setup, []float64, []float64) {
	t.Helper()
	return buildCaseLocal(t, a, p, seed, LocalGS)
}

// buildCaseLocal is buildCase with the given local solver.
func buildCaseLocal(t testing.TB, a *sparse.CSR, p int, seed int64, local LocalSolver) (*Setup, []float64, []float64) {
	t.Helper()
	if _, err := sparse.Scale(a); err != nil {
		t.Fatal(err)
	}
	part := partition.Partition(a, p, partition.Options{Seed: seed})
	l, err := NewLayout(a, part, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSetup(l, local)
	if err != nil {
		t.Fatal(err)
	}
	b, x := problem.ZeroBSystem(a, seed)
	return s, b, x
}

// suiteMatrix builds a suite matrix by name.
func suiteMatrix(t testing.TB, name string) *sparse.CSR {
	t.Helper()
	e, ok := problem.SuiteByName(name)
	if !ok {
		t.Fatalf("no suite matrix %q", name)
	}
	return e.Build()
}

// TestLayoutExchangePlansMatch is the layout contract the message path rests
// on, stated from A and the part vector alone. For every rank p and neighbor
// position j, with q = nbrs(p)[j]:
//
//   - the slot a solve files p's messages to q under (the run state's
//     payload.slot) is p's position in q's neighbor list;
//   - the global ids behind p's ghost row j — q's boundary rows toward p at
//     that slot, through q's rows — are {g : part[g] = q, some row of p
//     couples to g}, ascending, one per slot of the ghost row;
//   - a reset ghost layer holds b − Ax at those rows, bit for bit.
//
// So a message body needs no index, and the plans can be recomputed from A
// and the part vector. Checked on a grid, on a suite matrix and on the
// benchmark's wide4k shape (parts of 1-7 rows, single-neighbor ranks).
func TestLayoutExchangePlansMatch(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		p    int
	}{
		{"Poisson2D/7", problem.Poisson2D(16, 16), 7},
		{"Flan_1565/256", suiteMatrix(t, "Flan_1565"), 256},
		{"Flan_1565/4096", suiteMatrix(t, "Flan_1565"), 4096},
	} {
		part := partition.Partition(c.a, c.p, partition.Options{Seed: 1})
		l, err := NewLayout(c.a, part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSetup(l, LocalGS)
		if err != nil {
			t.Fatal(err)
		}
		st := newRunState(s)
		b, x := problem.ZeroBSystem(c.a, 1)
		st.reset(b, x, Config{}, stepSpec{})
		res := make([]float64, c.a.N)
		c.a.Residual(b, x, res)
		// keys[p]: owner<<32 | global id of every row outside p that a row
		// of p couples to, sorted and distinct.
		keys := make([][]int64, c.p)
		for g := range c.a.N {
			p := part[g]
			cols, _ := c.a.Row(g)
			for _, col := range cols {
				if q := part[col]; q != p {
					keys[p] = append(keys[p], int64(q)<<32|int64(col))
				}
			}
		}
		for p := range c.p {
			slices.Sort(keys[p])
			want := slices.Compact(keys[p])
			rs, behind := st.states[p], make([]int32, 0, len(want)) // behind[s]: the row behind ext slot s
			for j, q := range l.neighbors(p) {
				slot := rs.solve[j].slot
				if rs.res[j].slot != slot || slot < 0 || int(slot) >= len(l.neighbors(int(q))) || l.neighbors(int(q))[slot] != int32(p) {
					t.Fatalf("%s: rank %d files its messages to rank %d under slots %d/%d, want its position in %v",
						c.name, p, q, slot, rs.res[j].slot, l.neighbors(int(q)))
				}
				ghosts := l.ghostRows(p, j, slot)
				if z, _ := rs.ghost(j); len(z) != len(ghosts) {
					t.Fatalf("%s: rank %d's ghost row of rank %d has %d slots for %d rows", c.name, p, q, len(z), len(ghosts))
				}
				behind = append(behind, ghosts...)
			}
			if len(behind) != len(want) {
				t.Fatalf("%s: rank %d ghosts %d rows, A couples it to %d", c.name, p, len(behind), len(want))
			}
			for e, key := range want {
				if behind[e] != int32(key) {
					t.Fatalf("%s: rank %d's ext slot %d stands for row %d, want row %d of rank %d",
						c.name, p, e, behind[e], int32(key), key>>32)
				}
				if math.Float64bits(rs.z[e]) != math.Float64bits(res[int32(key)]) {
					t.Fatalf("%s: rank %d's ghost of row %d reset to %g, its residual is %g", c.name, p, int32(key), rs.z[e], res[int32(key)])
				}
			}
		}
	}
}

// TestGhostRowsMatch states, from A and the part vector alone, what a sweep
// in A's numbering reads instead of a target per entry of A: the global row
// behind every ext slot, as the run state derives it from the sending side
// (runState.extGlob, Layout.extRows). Rank p's ext slots, in order, are the
// distinct columns of its rows owned elsewhere, ordered by owner, then by
// global id — so, with p's own rows, every column its rows reach, each
// once. Checked on the benchmark's four shapes and on a grid with two
// isolated rows, one on a rank of its own (no neighbor, no ext slot) and
// one on a rank with grid rows.
func TestGhostRowsMatch(t *testing.T) {
	grid := problem.Poisson2D(8, 8)
	coo := sparse.NewCOO(grid.N+2, grid.NNZ()+2)
	for g := range grid.N {
		cols, vals := grid.Row(g)
		for k, c := range cols {
			coo.Add(g, int(c), vals[k])
		}
	}
	coo.Add(grid.N, grid.N, 4)
	coo.Add(grid.N+1, grid.N+1, 4)
	isolated := coo.ToCSR()
	part := append(partition.Partition(grid, 4, partition.Options{Seed: 1}), 4, 0)
	shapes := append([]layoutShape{{"isolated/5", isolated, part, 5}}, e2eShapes()...)
	for _, c := range shapes {
		l, err := NewLayout(c.a, c.part, c.p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSetup(l, LocalGS)
		if err != nil {
			t.Fatal(err)
		}
		st := newRunState(s)
		// keys[p]: owner<<32 | id of every column of p's rows owned elsewhere.
		keys := make([][]int64, c.p)
		for g, p := range c.part {
			cols, _ := c.a.Row(g)
			for _, col := range cols {
				if q := c.part[col]; q != p {
					keys[p] = append(keys[p], int64(q)<<32|int64(col))
				}
			}
		}
		if len(st.extGlob) != int(l.extOff[c.p]) {
			t.Fatalf("%s: %d ghost rows for %d ext slots", c.name, len(st.extGlob), l.extOff[c.p])
		}
		for p, rs := range st.states {
			slices.Sort(keys[p])
			want := slices.Compact(keys[p])
			got := st.extGlob[rs.ext0:][:len(rs.z)]
			if len(got) != len(want) {
				t.Fatalf("%s: rank %d has %d ext slots, A couples it to %d rows elsewhere", c.name, p, len(got), len(want))
			}
			for e, key := range want {
				if got[e] != int32(key) {
					t.Fatalf("%s: rank %d's ext slot %d stands for row %d, want row %d of rank %d", c.name, p, e, got[e], int32(key), key>>32)
				}
			}
		}
	}
}

// TestLayoutRejectsBadPartition: NewLayout returns an error, and does not
// panic, on a partition it cannot lay out, on P < 1 and on a nil matrix.
// P = −1 used to panic slicing its offset tables, P = 0 over an empty
// matrix to return a layout of no ranks, and a nil matrix to be
// dereferenced. P > n fails in under 1 MB: P = 2²⁴ over 16 rows used to
// allocate 256 MB of offsets before finding rank 16 empty.
func TestLayoutRejectsBadPartition(t *testing.T) {
	empty := &sparse.CSR{N: 0, RowPtr: []int32{0}}
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		p    int
		want string
	}{
		{"P=-1", empty, -1, "dmem: P = -1, want >= 1"},
		{"P=0", empty, 0, "dmem: P = 0, want >= 1"},
		{"nil", nil, 2, "dmem: nil matrix"},
	} {
		if _, err := NewLayout(c.a, nil, c.p); err == nil || err.Error() != c.want {
			t.Errorf("%s: NewLayout error %v, want %q", c.name, err, c.want)
		}
	}
	a := problem.Poisson2D(4, 4)
	if _, err := NewLayout(a, []int{0, 1}, 2); err == nil {
		t.Error("short partition accepted")
	}
	bad := make([]int, a.N)
	bad[3] = 9
	if _, err := NewLayout(a, bad, 2); err == nil {
		t.Error("out-of-range rank accepted")
	}
	allZero := make([]int, a.N)
	if _, err := NewLayout(a, allZero, 2); err == nil {
		t.Error("empty rank accepted")
	}
	// P > n is refused before anything grows with P: the offset table of
	// 2²⁴ ranks alone would be 256 MB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewLayout(a, allZero, 1<<24)
	runtime.ReadMemStats(&after)
	if want := "dmem: P = 16777216 > n = 16: some rank would own no rows"; err == nil || err.Error() != want {
		t.Errorf("P = 2^24 over 16 rows: NewLayout error %v, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("P = 2^24 over 16 rows: NewLayout allocated %d bytes before its error, want < 1 MB", grew)
	}
}

// asymmetricLayouts are structurally asymmetric matrices over the ranks part
// names, each missing a mirror across two ranks, one per check the per-rank
// layout made (oldAddressRank), with the error NewLayout must return: the
// entry its mirror walk meets first without one.
var asymmetricLayouts = []struct {
	name string
	a    *sparse.CSR
	part []int
	want string
}{
	{
		// Rank 2 couples into ranks 0 and 1, only rank 1 couples back. The
		// walk must pass rank 0 in rank 2's list when rank 1 visits it, and
		// report the pair (2, 0), as a search per pair does, not (1, 2).
		name: "skip", part: []int{0, 1, 2},
		a: &sparse.CSR{N: 3, RowPtr: []int32{0, 1, 3, 6}, Col: []int32{0, 1, 2, 0, 1, 2},
			Val: []float64{1, 1, 0.5, 0.5, 0.5, 1}},
		want: "dmem: entry (2, 0) has no mirror (0, 2): the matrix is not structurally symmetric",
	},
	{
		// Row 0 reaches rank 1's row; nothing of rank 1 reaches rank 0.
		name: "rank", part: []int{0, 1},
		a:    &sparse.CSR{N: 2, RowPtr: []int32{0, 2, 3}, Col: []int32{0, 1, 1}, Val: []float64{1, 0.5, 1}},
		want: "dmem: entry (0, 1) has no mirror (1, 0): the matrix is not structurally symmetric",
	},
	{
		// The ranks are mutual neighbors (0→2 and 3→1), but no entry is
		// returned: rank 1 does not ghost row 0.
		name: "row", part: []int{0, 0, 1, 1},
		a: &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 3, 4, 6}, Col: []int32{0, 2, 1, 2, 1, 3},
			Val: []float64{1, 0.5, 1, 1, 0.5, 1}},
		want: "dmem: entry (0, 2) has no mirror (2, 0): the matrix is not structurally symmetric",
	},
	{
		// Every boundary row of rank 0 is ghosted back (0↔2), but rank 1
		// also ghosts row 1, which does not couple into it.
		name: "count", part: []int{0, 0, 1},
		a: &sparse.CSR{N: 3, RowPtr: []int32{0, 2, 3, 6}, Col: []int32{0, 2, 1, 0, 1, 2},
			Val: []float64{1, 0.5, 1, 0.5, 0.5, 1}},
		want: "dmem: entry (2, 1) has no mirror (1, 2): the matrix is not structurally symmetric",
	},
}

// TestLayoutRejectsAsymmetricCoupling: NewLayout takes its matrix from
// outside, and every relaxation reads row i as column i, which only a
// structurally symmetric pattern allows; across ranks the exchange plans
// also pair up only on one. The hand-built matrices above miss a mirror
// across two ranks; the 4×4 tridiagonal "inside" rows miss (1, 0) within
// one rank, at P = 1 and at P = 2 with rows 0 and 1 on rank 0. NewLayout
// used to check only couplings between ranks: with b = 1..4 and x₀ = 0
// every method ran the inside rows to a reported ‖r‖ below 1e-18 while
// ‖b − Ax‖ was 0.923 under LocalGS and 0.488 under LocalDirect. No Setup
// is built for either local solver.
func TestLayoutRejectsAsymmetricCoupling(t *testing.T) {
	inside := &sparse.CSR{N: 4, RowPtr: []int32{0, 2, 4, 7, 9}, Col: []int32{0, 1, 1, 2, 1, 2, 3, 2, 3},
		Val: []float64{4, -1, 4, -1, -1, 4, -1, -1, 4}}
	const insideWant = "dmem: entry (0, 1) has no mirror (1, 0): the matrix is not structurally symmetric"
	cases := append(slices.Clone(asymmetricLayouts), []struct {
		name string
		a    *sparse.CSR
		part []int
		want string
	}{
		{name: "inside/P1", a: inside, part: []int{0, 0, 0, 0}, want: insideWant},
		{name: "inside/P2", a: inside, part: []int{0, 0, 1, 1}, want: insideWant},
	}...)
	for _, tc := range cases {
		if err := tc.a.Validate(); err != nil {
			t.Fatalf("%s: the test matrix itself is malformed: %v", tc.name, err)
		}
		for _, local := range []LocalSolver{LocalGS, LocalDirect} {
			l, err := NewLayout(tc.a, tc.part, slices.Max(tc.part)+1)
			if err == nil {
				_, err = NewSetup(l, local)
			}
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s/%v: set-up error %v, want %q", tc.name, local, err, tc.want)
			}
		}
	}
}

// TestLayoutRejectsUnusableDiagonal: every relaxation divides by its rows'
// diagonal entries, so NewLayout refuses a row whose diagonal is missing,
// zero, NaN or infinite, or stored as two entries, naming the lowest such
// row (the rule is sparse.CSR.Relaxable's: a NaN or infinite value and a
// repeated column are refused as malformed). The first case is a 4×4 path with no diagonal on rows 1 and 2 at
// P = 2, which used to run to ‖r‖ = +Inf and X = [0 0 +Inf +Inf] without an
// error. The last is built by hand, since COO.ToCSR sums duplicates: row 2
// holds its diagonal 2 as 1 and 1, and a layout that kept one of them as
// a_ii used to let the sweep subtract both entries' products while the
// maintained residual went out of step with b − Ax. A non-finite entry off
// the diagonal is refused the same way, since a zero start takes r₀ = b
// without reading A, which only a finite A makes exact: NaN in row 1's
// coupling to rank 1 and −Inf in row 3's coupling inside rank 1 each used
// to pass NewLayout and run to non-finite residuals.
func TestLayoutRejectsUnusableDiagonal(t *testing.T) {
	path := func(diag [4]float64, keep [4]bool) *sparse.CSR {
		coo := sparse.NewCOO(4, 10)
		for i := range 4 {
			if keep[i] {
				coo.Add(i, i, diag[i])
			}
			if i > 0 {
				coo.AddSym(i, i-1, -1)
			}
		}
		return coo.ToCSR()
	}
	// coupled is the path with every diagonal 2 and every coupling −1 but
	// row i's entry in column j, which is v (its mirror stays −1).
	coupled := func(i, j int, v float64) *sparse.CSR {
		coo := sparse.NewCOO(4, 10)
		for r := range 4 {
			coo.Add(r, r, 2)
			for _, c := range []int{r - 1, r + 1} {
				if c < 0 || c > 3 {
					continue
				}
				if r == i && c == j {
					coo.Add(r, c, v)
				} else {
					coo.Add(r, c, -1)
				}
			}
		}
		return coo.ToCSR()
	}
	ok := [4]float64{2, 2, 2, 2}
	all := [4]bool{true, true, true, true}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		{"missing", path(ok, [4]bool{true, false, false, true}), "dmem: row 1 has no diagonal entry"},
		{"zero", path([4]float64{2, 2, 2, 0}, all), "dmem: row 3 has a zero diagonal entry"},
		{"nan", path([4]float64{2, math.NaN(), 2, 2}, all), "dmem: row 1 col 1: non-finite value"},
		{"inf", path([4]float64{2, 2, math.Inf(-1), math.Inf(1)}, all), "dmem: row 2 col 2: non-finite value"},
		{"twice", &sparse.CSR{N: 4,
			RowPtr: []int32{0, 2, 5, 9, 11},
			Col:    []int32{0, 1, 0, 1, 2, 1, 2, 2, 3, 2, 3},
			Val:    []float64{2, -1, -1, 2, -1, -1, 1, 1, -1, -1, 2}}, "dmem: row 2: columns not strictly increasing at position 7"},
		{"offdiag-nan", coupled(1, 2, math.NaN()), "dmem: row 1 col 2: non-finite value"},
		{"offdiag-inf", coupled(3, 2, math.Inf(-1)), "dmem: row 3 col 2: non-finite value"},
	} {
		if _, err := NewLayout(tc.a, []int{0, 0, 1, 1}, 2); err == nil || err.Error() != tc.want {
			t.Errorf("%s: NewLayout error %v, want %q", tc.name, err, tc.want)
		}
	}
	// Row 3 sits on rank 0, below rank 1's row 1: the lowest row is named,
	// not the first rank's.
	if _, err := NewLayout(path([4]float64{2, 0, 2, 0}, all), []int{1, 1, 0, 0}, 2); err == nil || !strings.Contains(err.Error(), "row 1 ") {
		t.Errorf("NewLayout named %v, want row 1", err)
	}
	if _, err := NewLayout(path([4]float64{-2, 2, 2, 2}, all), []int{0, 0, 1, 1}, 2); err != nil {
		t.Errorf("a negative diagonal is usable: %v", err)
	}
}

// exactGlobalNorm recomputes ‖b - A x‖ from the gathered solution.
func exactGlobalNorm(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.N)
	a.Residual(b, x, r)
	return math.Sqrt(sparse.SumSquares(r))
}

type method func(s *Setup, b, x []float64, cfg Config) *Result

func methods() map[string]method {
	return map[string]method{
		"BlockJacobi":          BlockJacobi,
		"ParallelSouthwell":    ParallelSouthwell,
		"DistributedSouthwell": DistributedSouthwell,
	}
}

// methodsWithPB is methods() plus the deadlock-prone piggyback variant, for
// the invariants that must hold on it too (watchdog timing depends on sim
// time, which depends on the per-phase cost folds).
func methodsWithPB() map[string]method {
	ms := methods()
	ms["Piggyback2016"] = Piggyback2016
	return ms
}

// TestStartAtTargetRunsNoStep: a solve whose initial residual already meets
// its Target returns the step-0 record alone, sends no message, runs no
// step of the active-set engine and leaves x as it was.
func TestStartAtTargetRunsNoStep(t *testing.T) {
	for name, run := range methodsWithPB() {
		s, b, x := buildCase(t, problem.Poisson2D(10, 10), 4, 1)
		x0 := append([]float64(nil), x...)
		res := run(s, b, x, Config{Steps: 5, Target: 1e300})
		if len(res.History) != 1 || res.Stats.TotalMsgs() != 0 || len(res.ActiveHist) != 0 {
			t.Errorf("%s: %d records, %d messages, ActiveHist %v; want 1, 0, empty",
				name, len(res.History), res.Stats.TotalMsgs(), res.ActiveHist)
		}
		for i := range x0 {
			if math.Float64bits(res.X[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("%s: x[%d] moved from %g to %g", name, i, x0[i], res.X[i])
			}
		}
	}
}

// compareRuns is the package's one bit-identity comparator: two results
// must agree bit-for-bit in everything that is part of results — the
// per-step history (norms, messages by tag, simulated time, fault
// counters), cumulative runtime stats, the watchdog verdict, and the
// gathered solution. The ActiveHist diagnostic is an engine observation and
// deliberately excluded.
func compareRuns(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(a.History), len(b.History))
	}
	for s := range a.History {
		if a.History[s] != b.History[s] {
			t.Fatalf("%s: step %d differs:\na %+v\nb %+v", label, s, a.History[s], b.History[s])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ:\na %+v\nb %+v", label, a.Stats, b.Stats)
	}
	if a.Deadlocked != b.Deadlocked || a.DeadlockStep != b.DeadlockStep {
		t.Fatalf("%s: watchdog verdicts differ: (%v,%d) vs (%v,%d)",
			label, a.Deadlocked, a.DeadlockStep, b.Deadlocked, b.DeadlockStep)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: solution lengths differ: %d vs %d", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("%s: solution differs at row %d: %.17g vs %.17g", label, i, a.X[i], b.X[i])
		}
	}
}

// Core invariant: for every method, the reported residual norm at the end
// exactly matches ‖b - A x‖ of the gathered solution.
func TestMethodsResidualExact(t *testing.T) {
	for name, run := range methods() {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := problem.Poisson2D(24, 24)
			s, b, x := buildCase(t, a, 8, 2)
			res := run(s, b, x, Config{Steps: 20})
			got := exactGlobalNorm(s.Layout.A, b, res.X)
			if math.Abs(got-res.Final().ResNorm) > 1e-9 {
				t.Errorf("reported %g, true %g", res.Final().ResNorm, got)
			}
			if res.Final().ResNorm >= 1 {
				t.Errorf("no progress: %g", res.Final().ResNorm)
			}
		})
	}
}

func TestBlockJacobiConvergesOnPoisson(t *testing.T) {
	a := problem.Poisson2D(30, 30)
	s, b, x := buildCase(t, a, 4, 3)
	res := BlockJacobi(s, b, x, Config{Steps: 50})
	if res.Final().ResNorm > 0.1 {
		t.Errorf("Block Jacobi on an M-matrix with big blocks should reach 0.1, got %g", res.Final().ResNorm)
	}
	if res.ActiveFraction != 1 {
		t.Errorf("active fraction = %g, want 1", res.ActiveFraction)
	}
}

func TestBlockJacobiDivergesOnPlateWithManyRanks(t *testing.T) {
	// Small blocks (~21 rows/rank) on the 3D plate operator: hybrid GS
	// degenerates toward point Jacobi, whose iteration matrix has spectral
	// radius > 1 here (the Figure 9 mechanism).
	a := problem.PlateMix3D(14, 14, 14, 1, 0.5)
	s, b, x := buildCase(t, a, 128, 4)
	res := BlockJacobi(s, b, x, Config{Steps: 50})
	if res.Final().ResNorm < 1 {
		t.Errorf("Block Jacobi with small blocks on a plate operator should diverge, got %g", res.Final().ResNorm)
	}
}

func TestBlockJacobiDegradesWithMoreRanks(t *testing.T) {
	// Figure 9 shape: the 50-step residual grows with the rank count.
	a := problem.PlateMix2D(40, 40, 1, 0.5)
	s4, b4, x4 := buildCase(t, a.Clone(), 16, 4)
	small := BlockJacobi(s4, b4, x4, Config{Steps: 50}).Final().ResNorm
	s160, b160, x160 := buildCase(t, a.Clone(), 160, 4)
	big := BlockJacobi(s160, b160, x160, Config{Steps: 50}).Final().ResNorm
	if big <= small*10 {
		t.Errorf("BJ residual at P=160 (%g) should be ≫ P=16 (%g)", big, small)
	}
}

func TestSouthwellMethodsStableOnPlate(t *testing.T) {
	a := problem.PlateMix3D(14, 14, 14, 1, 0.5)
	for name, run := range map[string]method{
		"PS": ParallelSouthwell, "DS": DistributedSouthwell,
	} {
		s, b, x := buildCase(t, a.Clone(), 128, 4)
		res := run(s, b, x, Config{Steps: 50})
		if res.Final().ResNorm >= 1 {
			t.Errorf("%s diverged on plate: %g", name, res.Final().ResNorm)
		}
	}
}

func TestParallelSouthwellRelaxedSetIndependent(t *testing.T) {
	a := problem.Poisson2D(20, 20)
	s, b, x := buildCase(t, a, 10, 5)
	// Instrument: run step by step via Target trick is awkward; instead run
	// once and rely on the exactness property — under exact norms with
	// rank-id tie-breaking, two adjacent ranks can never both win. Verify
	// by replaying the criterion over the per-step relaxed counts: active
	// fraction must stay below the independence bound (no step relaxes two
	// adjacent ranks means relaxed <= maximal independent set size).
	res := ParallelSouthwell(s, b, x, Config{Steps: 30})
	for _, h := range res.History[1:] {
		if h.RelaxedRanks == 0 {
			t.Fatalf("step %d relaxed nothing (deadlock in PS?)", h.Step)
		}
	}
	if res.Final().ResNorm >= 1 {
		t.Error("PS made no progress")
	}
}

func TestDistSWBeatsPSOnCommunication(t *testing.T) {
	// Table 3 shape: DS explicit-residual communication is a small fraction
	// of PS's; total messages are well below PS's.
	a := problem.Poisson3D(12, 12, 12, nil, 1, 1, 1)
	s, b, x := buildCase(t, a, 48, 6)
	ps := ParallelSouthwell(s, b, x, Config{Steps: 50})
	s2, b2, x2 := buildCase(t, problem.Poisson3D(12, 12, 12, nil, 1, 1, 1), 48, 6)
	ds := DistributedSouthwell(s2, b2, x2, Config{Steps: 50})

	if ds.Stats.ResMsgs >= ps.Stats.ResMsgs {
		t.Errorf("DS res msgs %d should be far below PS %d", ds.Stats.ResMsgs, ps.Stats.ResMsgs)
	}
	if float64(ds.Stats.TotalMsgs()) > 0.8*float64(ps.Stats.TotalMsgs()) {
		t.Errorf("DS total msgs %d vs PS %d: expected a clear reduction",
			ds.Stats.TotalMsgs(), ps.Stats.TotalMsgs())
	}
	// And DS should be at least as active per step (inexact estimates admit
	// more simultaneous relaxations).
	if ds.ActiveFraction < ps.ActiveFraction {
		t.Errorf("DS active %g < PS active %g", ds.ActiveFraction, ps.ActiveFraction)
	}
}

func TestDistSWConvergesToTargetWithLessCommThanPS(t *testing.T) {
	a := problem.Poisson2D(32, 32)
	s, b, x := buildCase(t, a, 32, 7)
	ds := DistributedSouthwell(s, b, x, Config{Steps: 200, Target: 0.1})
	if ds.Final().ResNorm > 0.1 {
		t.Fatalf("DS did not reach 0.1 in 200 steps: %g", ds.Final().ResNorm)
	}
}

func TestPiggyback2016Deadlocks(t *testing.T) {
	// The paper: "Parallel Southwell as defined in [18] deadlocks for all
	// our test problems." Reproduce on a moderately partitioned Poisson
	// problem, then show Distributed Southwell pushes past the same point.
	a := problem.Poisson2D(28, 28)
	s, b, x := buildCase(t, a, 28, 8)
	pb := Piggyback2016(s, b, x, Config{Steps: 500})
	if !pb.Deadlocked {
		t.Fatalf("piggyback variant did not deadlock in %d steps (final %g)",
			len(pb.History)-1, pb.Final().ResNorm)
	}
	s2, b2, x2 := buildCase(t, problem.Poisson2D(28, 28), 28, 8)
	ds := DistributedSouthwell(s2, b2, x2, Config{Steps: pb.DeadlockStep + 100})
	if ds.Final().ResNorm >= pb.Final().ResNorm {
		t.Errorf("DS (%g) should pass the deadlock point (%g)",
			ds.Final().ResNorm, pb.Final().ResNorm)
	}
}

// TestNaNStartIsADeadlock: a NaN in x0 reaches the norms. No rank wins a
// comparison against a NaN norm, so Distributed Southwell, Parallel
// Southwell and pb16 stall; Block Jacobi relaxes regardless, and the NaN
// norm itself stops it. Every stop is a deadlock, not convergence to zero.
func TestNaNStartIsADeadlock(t *testing.T) {
	for name, run := range map[string]method{
		"DistributedSouthwell": DistributedSouthwell,
		"ParallelSouthwell":    ParallelSouthwell,
		"Piggyback2016":        Piggyback2016,
		"BlockJacobi":          BlockJacobi,
	} {
		s, b, x := buildCase(t, problem.Poisson2D(16, 16), 4, 1)
		x[5] = math.NaN()
		res := run(s, b, x, Config{Steps: 20})
		if !res.Deadlocked || res.DeadlockStep == 0 {
			t.Errorf("%s: stopped after %d steps at ‖r‖ = %g with Deadlocked = %v, DeadlockStep = %d",
				name, len(res.History)-1, res.Final().ResNorm, res.Deadlocked, res.DeadlockStep)
		}
	}
}

// TestParallelEngineIdenticalHistory: a set-up built with the worker pool
// at every width (NewLayout and NewSetup's factorization run on it) gives
// the histories, stats and solution of one built at the default width, for
// every method on an unstructured mesh.
func TestParallelEngineIdenticalHistory(t *testing.T) {
	a := problem.FEM2D(24, 0.3, 9)
	for name, run := range methods() {
		s, b, x := buildCase(t, a.Clone(), 12, 9)
		seq := run(s, b, x, Config{Steps: 25})
		eachWidth(func(k int) {
			s2, b2, x2 := buildCase(t, a.Clone(), 12, 9)
			compareRuns(t, fmt.Sprintf("%s/w%d", name, k), seq, run(s2, b2, x2, Config{Steps: 25}))
		})
	}
}

// eachWidth calls f with parallel.For — what NewLayout and NewSetup run
// on; rank phases never do — at widths 2, 4 and 7 in turn, then restores
// the width, so the set-up width rows bite at any host GOMAXPROCS.
func eachWidth(f func(k int)) {
	prev := parallel.Workers()
	defer parallel.SetDefaultWorkers(prev)
	for _, k := range []int{2, 4, 7} {
		parallel.SetDefaultWorkers(k)
		f(k)
	}
}

func TestStepsToNormInterpolation(t *testing.T) {
	res := &Result{History: []StepStats{
		{Step: 0, ResNorm: 1},
		{Step: 1, ResNorm: 0.5},
		{Step: 2, ResNorm: 0.05},
	}}
	s, ok := res.StepsToNorm(0.1)
	if !ok {
		t.Fatal("target not found")
	}
	if s <= 1 || s >= 2 {
		t.Errorf("interpolated step %g, want in (1,2)", s)
	}
	if _, ok := res.StepsToNorm(1e-9); ok {
		t.Error("unreachable target reported reached")
	}
	v, ok := res.InterpAtNorm(0.1, func(h StepStats) float64 { return float64(h.Step) * 10 })
	if !ok || v <= 10 || v >= 20 {
		t.Errorf("InterpAtNorm = %g, %v", v, ok)
	}
}

func TestDistSWAblationNoGhostEstimateCostsMoreWork(t *testing.T) {
	// Without the communication-free ghost-layer estimate improvement,
	// ranks under-estimate their neighbors and over-relax: measurably more
	// relaxations and more total messages for the same number of steps.
	a := problem.Poisson2D(26, 26)
	s, b, x := buildCase(t, a, 26, 10)
	base := DistributedSouthwell(s, b, x, Config{Steps: 50})
	s2, b2, x2 := buildCase(t, problem.Poisson2D(26, 26), 26, 10)
	noGhost := DistributedSouthwellOpt(s2, b2, x2, Config{Steps: 50}, DistSWOptions{NoGhostEstimate: true})
	if noGhost.Final().Relaxations <= base.Final().Relaxations {
		t.Errorf("without ghost estimates relaxations %d should exceed baseline %d",
			noGhost.Final().Relaxations, base.Final().Relaxations)
	}
	if noGhost.Stats.TotalMsgs() <= base.Stats.TotalMsgs() {
		t.Errorf("without ghost estimates total msgs %d should exceed baseline %d",
			noGhost.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	}
}

// Property: on random FEM problems and random rank counts, every method
// keeps the residual exact and the histories are internally consistent.
func TestQuickMethodsResidualExactness(t *testing.T) {
	ms := methods()
	f := func(seed int64) bool {
		m := 10 + int(seed%8+8)%8
		p := 3 + int(seed%5+5)%5
		a := problem.FEM2D(m, 0.3, seed)
		if _, err := sparse.Scale(a); err != nil {
			return false
		}
		l, err := NewLayout(a, partition.Partition(a, p, partition.Options{Seed: seed}), p)
		if err != nil {
			return false
		}
		s, err := NewSetup(l, LocalGS)
		if err != nil {
			return false
		}
		for _, run := range ms {
			b, x := problem.ZeroBSystem(a, seed)
			res := run(s, b, x, Config{Steps: 10})
			if math.Abs(exactGlobalNorm(a, b, res.X)-res.Final().ResNorm) > 1e-8 {
				return false
			}
			for i, h := range res.History {
				if h.Step != i || h.SolveMsgs < 0 {
					return false
				}
				if i > 0 && h.Relaxations < res.History[i-1].Relaxations {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}); c.steps() != 50 || c.watchdogWindow() != 10 {
		t.Errorf("default steps = %d, watchdog = %d", c.steps(), c.watchdogWindow())
	}
	if c := (Config{Steps: 7, watchdog: 3}); c.steps() != 7 || c.watchdogWindow() != 3 {
		t.Error("explicit config ignored")
	}
}
