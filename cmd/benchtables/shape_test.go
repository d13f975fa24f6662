package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The shape criteria of DESIGN.md §4, asserted on the committed
// results/*.txt: who wins, by what factor, and where failures fall. Each
// subtest is one bullet of that list. A value printed as † (target not
// reached) reads as +Inf, so "reaches" is "finite".

// row is one data line of a results file: its leading label and the
// numbers after it.
type row struct {
	label string
	vals  []float64
}

// readRows returns the data lines of results/<name>: those whose fields
// after the first labels are all numbers or †, with the "|" column
// separators dropped. Header and comment lines fail that test and are
// skipped.
func readRows(t *testing.T, name string, labels int) []row {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, "|", " "))
		if len(fields) <= labels {
			continue
		}
		r := row{label: strings.Join(fields[:labels], " ")}
		for _, s := range fields[labels:] {
			v, ok := parseCell(s)
			if !ok {
				r.vals = nil
				break
			}
			r.vals = append(r.vals, v)
		}
		if r.vals != nil {
			rows = append(rows, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("results/%s: no data rows", name)
	}
	return rows
}

func parseCell(s string) (float64, bool) {
	if s == "†" {
		return math.Inf(1), true
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// readSeries returns fig2/fig5's convergence series: relaxations and
// residual norms per method, the method being every field before the last
// two ("Par SW", "MC GS").
func readSeries(t *testing.T, name string) map[string][][2]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series := map[string][][2]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		n := len(fields)
		relax, err1 := strconv.ParseFloat(fields[n-2], 64)
		res, err2 := strconv.ParseFloat(fields[n-1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("results/%s: bad line %q", name, sc.Text())
		}
		m := strings.Join(fields[:n-2], " ")
		series[m] = append(series[m], [2]float64{relax, res})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// relaxTo is the relaxation count at the first point of s at or below
// target, +Inf if there is none.
func relaxTo(s [][2]float64, target float64) float64 {
	for _, p := range s {
		if p[1] <= target {
			return p[0]
		}
	}
	return math.Inf(1)
}

// resWithin is the residual norm at the last point of s within budget
// relaxations, 1 (the start) if there is none.
func resWithin(s [][2]float64, budget float64) float64 {
	r := 1.0
	for _, p := range s {
		if p[0] <= budget {
			r = p[1]
		}
	}
	return r
}

// byMatrix groups fig8/fig9 rows by matrix: the values per rank count in
// file order, the first value of each being the rank count.
func byMatrix(rows []row) (order []string, m map[string][][]float64) {
	m = map[string][][]float64{}
	for _, r := range rows {
		if _, ok := m[r.label]; !ok {
			order = append(order, r.label)
		}
		m[r.label] = append(m[r.label], r.vals)
	}
	return order, m
}

func TestPaperShapeCriteria(t *testing.T) {
	t.Run("fig2-fig5", func(t *testing.T) {
		// SW fastest per relaxation; Par SW ≈ SW; DS tracks PS at low
		// accuracy; Jacobi slowest; MC GS between. "Low accuracy" is the
		// paper's ‖r‖ = 0.6.
		s := readSeries(t, "fig2.txt")
		for m, v := range readSeries(t, "fig5.txt") {
			if m == "Dist SW" {
				s[m] = v
			}
		}
		to := map[string]float64{}
		for _, m := range []string{"GS", "SW", "Par SW", "MC GS", "Jacobi", "Dist SW"} {
			if len(s[m]) == 0 {
				t.Fatalf("no %s series", m)
			}
			to[m] = relaxTo(s[m], 0.6)
		}
		for m, r := range to {
			if m != "SW" && !(to["SW"] < r) {
				t.Errorf("SW needs %g relaxations to 0.6, %s %g: SW is not the fastest", to["SW"], m, r)
			}
		}
		if to["Par SW"] > 1.5*to["SW"] {
			t.Errorf("Par SW %g vs SW %g relaxations to 0.6: not close", to["Par SW"], to["SW"])
		}
		if math.Abs(to["Dist SW"]/to["Par SW"]-1) > 0.25 {
			t.Errorf("Dist SW %g vs Par SW %g relaxations to 0.6: DS does not track PS", to["Dist SW"], to["Par SW"])
		}
		// Jacobi and MC GS print once a sweep, so both can cross 0.6 at the
		// same count; "slowest" is read as domination instead: within each
		// of Jacobi's budgets every other method ends lower. That also puts
		// MC GS below Jacobi, and SW's crossing above puts it below MC GS.
		for _, p := range s["Jacobi"] {
			for m, v := range s {
				if m != "Jacobi" && !(resWithin(v, p[0]) < p[1]) {
					t.Errorf("%s within %g relaxations ends at %g, not below Jacobi's %g", m, p[0], resWithin(v, p[0]), p[1])
				}
			}
		}
	})

	t.Run("fig6", func(t *testing.T) {
		// All three smoothers grid-size independent (under one order of
		// magnitude from 15 to 255); DS at least as efficient as GS per
		// relaxation: a 1-sweep DS V-cycle does a GS sweep's relaxations
		// and must end lower.
		rows := readRows(t, "fig6.txt", 1)
		for c, name := range []string{"GS", "DS 1/2 sweep", "DS"} {
			lo, hi := math.Inf(1), 0.0
			for _, r := range rows {
				lo, hi = min(lo, r.vals[c]), max(hi, r.vals[c])
			}
			if hi > 10*lo {
				t.Errorf("%s: residual after 9 V-cycles spans %g..%g over the grids", name, lo, hi)
			}
		}
		for _, r := range rows {
			if !(r.vals[2] < r.vals[0]) {
				t.Errorf("grid %s: DS 1-sweep %g not below GS %g", r.label, r.vals[2], r.vals[0])
			}
		}
	})

	// Table 2's columns: time, comm, steps, relax/n, active; BJ PS DS each.
	const bj, ps, ds = 0, 1, 2
	const comm, active = 3, 12
	t.Run("table2", func(t *testing.T) {
		// DS reaches 0.1 on all 14; PS fails on a couple or is ~2-3× the
		// messages; BJ reaches 0.1 on only a few; DS active fraction > PS.
		rows := readRows(t, "table2.txt", 1)
		if len(rows) != 14 {
			t.Fatalf("%d matrices, want 14", len(rows))
		}
		bjReached := 0
		for _, r := range rows {
			v := r.vals
			if math.IsInf(v[ds], 1) {
				t.Errorf("%s: DS does not reach 0.1", r.label)
			}
			if !math.IsInf(v[bj], 1) {
				bjReached++
			}
			if math.IsInf(v[ps], 1) {
				continue
			}
			if v[comm+ps] < 2*v[comm+ds] {
				t.Errorf("%s: PS comm %g is under twice DS's %g", r.label, v[comm+ps], v[comm+ds])
			}
			if !(v[active+ds] > v[active+ps]) {
				t.Errorf("%s: DS active fraction %g not above PS's %g", r.label, v[active+ds], v[active+ps])
			}
		}
		if bjReached > 4 {
			t.Errorf("BJ reaches 0.1 on %d of 14, want only a few (the paper: 3)", bjReached)
		}
	})

	t.Run("table3", func(t *testing.T) {
		// PS res comm ≫ DS res comm; solve comm comparable.
		for _, r := range readRows(t, "table3.txt", 1) {
			solvePS, solveDS, resPS, resDS := r.vals[0], r.vals[1], r.vals[2], r.vals[3]
			if math.IsInf(solvePS, 1) {
				continue
			}
			if resPS < 2*resDS {
				t.Errorf("%s: PS res comm %g is under twice DS's %g", r.label, resPS, resDS)
			}
			if math.Abs(solveDS/solvePS-1) > 0.1 {
				t.Errorf("%s: solve comm PS %g vs DS %g differ by more than 10 %%", r.label, solvePS, solveDS)
			}
		}
	})

	t.Run("table4", func(t *testing.T) {
		// Per-step cost BJ > PS > DS. The communication column holds it
		// strictly. The time column holds only PS > DS: PS's three
		// communication phases outweigh BJ's all-ranks compute in the BSP
		// model, and BJ and DS are within a few % of each other either way
		// (deviations EXPERIMENTS.md records), so BJ's place in time is not
		// asserted.
		for _, r := range readRows(t, "table4.txt", 1) {
			v := r.vals
			if !(v[comm+bj] > v[comm+ps] && v[comm+ps] > v[comm+ds]) {
				t.Errorf("%s: per-step comm BJ %g, PS %g, DS %g not in decreasing order", r.label, v[comm+bj], v[comm+ps], v[comm+ds])
			}
			if !(v[ds] < v[ps]) {
				t.Errorf("%s: per-step time PS %g, DS %g: DS not below PS", r.label, v[ps], v[ds])
			}
		}
	})

	t.Run("fig7", func(t *testing.T) {
		// BJ diverges on bone010-like cases after initial progress; DS best
		// at 0.1 accuracy when BJ fails. Columns: step, time, comm, ‖r‖.
		res := map[string][]float64{}
		for _, r := range readRows(t, "fig7.txt", 2) {
			res[r.label] = append(res[r.label], r.vals[3])
		}
		split := func(m string) (bjS, psS, dsS []float64) {
			bjS, psS, dsS = res[m+" BJ"], res[m+" PS"], res[m+" DS"]
			if len(bjS) == 0 || len(psS) == 0 || len(dsS) == 0 {
				t.Fatalf("%s: a method's series is missing", m)
			}
			return bjS, psS, dsS
		}
		first := func(s []float64, target float64) int {
			for i, v := range s {
				if v <= target {
					return i
				}
			}
			return math.MaxInt
		}
		least := func(s []float64) float64 {
			m := math.Inf(1)
			for _, v := range s {
				m = min(m, v)
			}
			return m
		}
		for _, m := range []string{"Geo_1438", "Hook_1498"} {
			b, _, _ := split(m)
			if lo := least(b); !(lo <= 0.1 && b[len(b)-1] > 2*lo) {
				t.Errorf("%s: BJ least ‖r‖ %g, last %g: want 0.1 reached, then growth", m, lo, b[len(b)-1])
			}
		}
		b, p, d := split("bone010")
		if lo := least(b); !(lo < 1 && lo > 0.1 && b[len(b)-1] > 1) {
			t.Errorf("bone010: BJ least ‖r‖ %g, last %g: want progress short of 0.1, then divergence", lo, b[len(b)-1])
		}
		if fd, fp := first(d, 0.1), first(p, 0.1); !(fd < fp) {
			t.Errorf("bone010: DS reaches 0.1 at step %d, PS at %d: DS not best", fd, fp)
		}
		b, _, _ = split("af_5_k101")
		if b[len(b)-1] > least(b) {
			t.Errorf("af_5_k101: BJ ends at %g above its least %g, want no divergence", b[len(b)-1], least(b))
		}
	})

	t.Run("fig8", func(t *testing.T) {
		// Time dips then rises with P; DS ≤ PS everywhere (≈ tie allowed
		// at small P, here 10 % at P ≤ 16); BJ fastest when it converges.
		// Only the rise is asserted, not the dip: at these matrix sizes the
		// γ-cost of local work is small, so the initial dip is shallow or
		// absent (EXPERIMENTS.md).
		order, m := byMatrix(readRows(t, "fig8.txt", 1))
		for _, name := range order {
			pts := m[name]
			for _, v := range pts {
				p, tb, tp, td := v[0], v[1], v[2], v[3]
				slack := 1.0
				if p <= 16 {
					slack = 1.1
				}
				if td > slack*tp {
					t.Errorf("%s P=%g: DS %g slower than PS %g", name, p, td, tp)
				}
				if !math.IsInf(tb, 1) && !(tb < td) {
					t.Errorf("%s P=%g: BJ converges in %g, not faster than DS %g", name, p, tb, td)
				}
			}
			if lo, hi := pts[0][3], pts[len(pts)-1][3]; !(hi > lo) {
				t.Errorf("%s: DS time %g at the largest P not above %g at the smallest", name, hi, lo)
			}
		}
	})

	t.Run("fig9", func(t *testing.T) {
		// BJ residual after 50 steps blows up with P; PS/DS degrade mildly.
		order, m := byMatrix(readRows(t, "fig9.txt", 1))
		for _, name := range order {
			pts := m[name]
			first, last := pts[0], pts[len(pts)-1]
			if !(last[1] > 0.1 && last[1] > 100*first[1]) {
				t.Errorf("%s: BJ ‖r‖ %g at P=%g, %g at P=%g: no blow-up", name, first[1], first[0], last[1], last[0])
			}
			for _, v := range pts {
				if !(v[2] < 0.5 && v[3] < 0.5) {
					t.Errorf("%s P=%g: PS %g, DS %g after 50 steps: not a mild degradation", name, v[0], v[2], v[3])
				}
			}
		}
	})
}
