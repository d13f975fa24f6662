package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/parallel"
	"southwell/internal/rma"
)

func quickCfg() Config { return Config{Quick: true, Ranks: 32, Seed: 1} }

func TestFig2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range []string{"GS", "SW", "Par SW", "MC GS", "Jacobi"} {
		if !strings.Contains(out, m) {
			t.Errorf("Fig2 missing series %q", m)
		}
	}
}

func TestFig5Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Dist SW") {
		t.Error("Fig5 missing Distributed Southwell series")
	}
	if !strings.Contains(buf.String(), "0.6") {
		t.Error("Fig5 missing sweet-spot summary")
	}
}

func TestFig6Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "GS") || !strings.Contains(out, "Dist SW 0.5 sweep") {
		t.Errorf("Fig6 missing columns:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 5 {
		t.Error("Fig6 too few rows")
	}
}

func TestTablesAndFigsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	cfg := quickCfg()
	for name, fn := range map[string]func(*bytes.Buffer) error{
		"table2":  func(b *bytes.Buffer) error { return Table2(b, cfg) },
		"table3":  func(b *bytes.Buffer) error { return Table3(b, cfg) },
		"table4":  func(b *bytes.Buffer) error { return Table4(b, cfg) },
		"fig7":    func(b *bytes.Buffer) error { return Fig7(b, cfg) },
		"fig8":    func(b *bytes.Buffer) error { return Fig8(b, cfg) },
		"fig9":    func(b *bytes.Buffer) error { return Fig9(b, cfg) },
		"scaling": func(b *bytes.Buffer) error { return Scaling(b, cfg) },
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
		for _, m := range cfg.suiteNames()[:1] {
			if name[0] == 't' && !strings.Contains(buf.String(), m) {
				t.Errorf("%s missing matrix %s", name, m)
			}
		}
	}
}

func TestRunCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	cfg := quickCfg()
	r1, err := runSuite(cfg, "af_5_k101", core.DistSWD, cfg.ranks(), 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runSuite(cfg, "af_5_k101", core.DistSWD, cfg.ranks(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("cache miss for identical run")
	}
	ResetCaches()
	r3, err := runSuite(cfg, "af_5_k101", core.DistSWD, cfg.ranks(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r3 {
		t.Error("cache not cleared")
	}
}

func TestRunSuiteUnknownMatrix(t *testing.T) {
	if _, err := runSuite(Config{Seed: 1}, "nope", core.DistSWD, 4, 5); err == nil {
		t.Error("unknown matrix accepted")
	}
}

// atWidth runs f with parallel.For's width set to w, restoring it after.
func atWidth(w int, f func()) {
	defer parallel.SetDefaultWorkers(parallel.Workers())
	parallel.SetDefaultWorkers(w)
	f()
}

// TestParDriverDeterministic checks that table output is bit-identical
// whether the run sets go one at a time (width 1) or four at once.
func TestParDriverDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	render := func(w int) string {
		ResetCaches()
		defer ResetCaches()
		var buf bytes.Buffer
		atWidth(w, func() {
			cfg := quickCfg()
			if err := Table4(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			if err := Table3(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			if err := Scaling(&buf, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return buf.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("parallel driver changed table output:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestTraceHook: a run with TraceDir/MetricsDir set dumps its per-run
// trace-event JSON and metrics summary, and the recorded run is
// bit-identical to an untraced one.
func TestTraceHook(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	ResetCaches()
	defer ResetCaches()
	dir := t.TempDir()
	cfg := quickCfg()
	ref, err := runSuite(cfg, "af_5_k101", core.DistSWD, cfg.ranks(), 10)
	if err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	cfg.TraceDir = dir
	cfg.MetricsDir = dir
	traced, err := runSuite(cfg, "af_5_k101", core.DistSWD, cfg.ranks(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.History) != len(ref.History) {
		t.Fatalf("tracing changed the run: %d vs %d steps", len(traced.History), len(ref.History))
	}
	for i := range ref.History {
		if traced.History[i] != ref.History[i] {
			t.Fatalf("tracing changed step %d: %+v vs %+v", i, traced.History[i], ref.History[i])
		}
	}
	base := fmt.Sprintf("af_5_k101_ds_p%d_s10", cfg.ranks())
	tj, err := os.ReadFile(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(tj, &parsed); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"].([]any); !ok {
		t.Error("trace file missing traceEvents array")
	}
	mt, err := os.ReadFile(filepath.Join(dir, base+".metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mt), "# per-rank") {
		t.Errorf("metrics summary missing per-rank table:\n%s", mt)
	}
	// No kernel-pool line from suite runs: the pool counters are
	// process-global, so a per-run delta taken while a run set spreads over
	// several goroutines would absorb concurrent runs and the file would
	// differ between widths.
	if strings.Contains(string(mt), "kernel pool") {
		t.Errorf("suite metrics carries a kernel-pool snapshot (driver-concurrency dependent):\n%s", mt)
	}
}

// TestTraceExportDriverInvariant: the exported trace and metrics bytes
// for one run key must not depend on the width the run set spreads over.
func TestTraceExportDriverInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	export := func(w int) (trace, metrics []byte) {
		t.Helper()
		ResetCaches()
		defer ResetCaches()
		dir := t.TempDir()
		cfg := quickCfg()
		cfg.TraceDir = dir
		cfg.MetricsDir = dir
		var buf bytes.Buffer
		atWidth(w, func() {
			if err := Table2(&buf, cfg); err != nil {
				t.Fatal(err)
			}
		})
		base := fmt.Sprintf("af_5_k101_ds_p%d_s%d", cfg.ranks(), cfg.stepsOr(60))
		tj, err := os.ReadFile(filepath.Join(dir, base+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		mt, err := os.ReadFile(filepath.Join(dir, base+".metrics.txt"))
		if err != nil {
			t.Fatal(err)
		}
		return tj, mt
	}
	seqTrace, seqMet := export(1)
	parTrace, parMet := export(4)
	if !bytes.Equal(seqTrace, parTrace) {
		t.Error("trace export differs between widths 1 and 4")
	}
	if !bytes.Equal(seqMet, parMet) {
		t.Error("metrics export differs between widths 1 and 4")
	}
}

func TestDagger(t *testing.T) {
	if dagger(1.5, true, "%.1f") != "1.5" {
		t.Error("dagger formats value")
	}
	if dagger(0, false, "%.1f") != "†" {
		t.Error("dagger symbol")
	}
}

func TestAblationOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	ResetCaches()
	defer ResetCaches()
	cfg := quickCfg()
	var buf bytes.Buffer
	if err := Ablation(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	// Its gs and direct setups of a cell share one layout: one per matrix.
	names := cfg.suiteNames()
	if n := memoLen(&layouts); n != len(names) {
		t.Errorf("quick ablation built %d layouts, want one per matrix (%d)", n, len(names))
	}
	for _, name := range names {
		gs, err := setupFor(name, cfg.ranks(), cfg.seed(), dmem.LocalGS)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := setupFor(name, cfg.ranks(), cfg.seed(), dmem.LocalDirect)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Layout != direct.Layout {
			t.Errorf("%s: gs and direct setups hold different layouts", name)
		}
	}
	for _, label := range []string{"paper", "no-ghost", "slack-0.5"} {
		if !strings.Contains(buf.String(), label) {
			t.Errorf("ablation missing variant %q", label)
		}
	}
	// The table honours the config like every suite run.
	chaos := quickCfg()
	chaos.Faults = rma.DelayPlan(1, 0.3, 3)
	var faulty bytes.Buffer
	if err := Ablation(&faulty, chaos); err != nil {
		t.Fatal(err)
	}
	if faulty.String() == buf.String() {
		t.Error("a fault plan left the ablation table unchanged: Config.Faults is ignored")
	}
}

// TestRunCacheKeyedByConfig: every result-changing config field must reach
// the cache key. Historically the fault plan was omitted, so a
// perfect-network run answered for a later chaos table. Two runs differing
// in exactly one such field must not share a cache entry.
func TestRunCacheKeyedByConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	ResetCaches()
	defer ResetCaches()
	base := quickCfg()
	run := func(cfg Config) *dmem.Result {
		t.Helper()
		r, err := runSuite(cfg, "af_5_k101", core.DistSWD, base.ranks(), 10)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(base)

	chaos := base
	chaos.Faults = rma.DelayPlan(1, 0.25, 3)
	if run(chaos) == ref {
		t.Error("configs differing only in Faults share a cache entry")
	}
	if run(base) != ref {
		t.Error("base config no longer hits its own cache entry")
	}
}

// TestChaosOutput: the robustness table renders every method column and the
// paper's dichotomy — Distributed and Parallel Southwell never stopped by
// the watchdog, the 2016 piggyback variant detected as stagnated under
// faults.
func TestChaosOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	ResetCaches()
	defer ResetCaches()
	var buf bytes.Buffer
	if err := Chaos(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"bj", "ps", "ds", "pb16", "delay"} {
		if !strings.Contains(out, col) {
			t.Errorf("chaos table missing %q:\n%s", col, out)
		}
	}
	// Columns after the row label: bj | ps | ds | pb16.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") || !strings.Contains(line, " | ") || strings.Contains(line, "matrix") {
			continue
		}
		cells := strings.Split(line, " | ")
		if len(cells) != 5 {
			t.Fatalf("chaos row has %d cells, want 5: %q", len(cells), line)
		}
		rows++
		if strings.Contains(cells[2], "dl@") {
			t.Errorf("Parallel Southwell tripped the watchdog: %q", line)
		}
		if strings.Contains(cells[3], "dl@") {
			t.Errorf("Distributed Southwell tripped the watchdog: %q", line)
		}
		if !strings.Contains(cells[4], "dl@") {
			t.Errorf("Piggyback2016 not detected as stagnated: %q", line)
		}
	}
	if want := len(quickCfg().suiteNames()) * len(chaosLevels); rows != want {
		t.Errorf("chaos table has %d data rows, want %d", rows, want)
	}
}
