package dmem

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceCase runs Distributed Southwell on a small fixed Poisson problem
// with a fresh recorder and returns both.
func traceCase(t *testing.T, parallel bool, steps int) (*Result, *obs.Recorder) {
	t.Helper()
	l, b, x := buildCase(t, problem.Poisson2D(12, 12), 4, 1)
	rec := obs.NewRecorderCap(4, 4096)
	rec.SetLabel("golden ds")
	res := DistributedSouthwell(l, b, x, Config{Steps: steps, Parallel: parallel, Trace: rec})
	return res, rec
}

// TestTracingPreservesResults is the observability layer's first law: a
// run with a live Recorder is bit-identical — step history, cumulative
// stats, and solution vector — to the same run without one, for every
// method.
func TestTracingPreservesResults(t *testing.T) {
	for name, run := range methods() {
		t.Run(name, func(t *testing.T) {
			a := problem.Poisson2D(16, 16)
			l, b, x := buildCase(t, a, 6, 1)
			plain := run(l, b, x, Config{Steps: 12})
			l2, b2, x2 := buildCase(t, a, 6, 1)
			rec := obs.NewRecorder(6)
			traced := run(l2, b2, x2, Config{Steps: 12, Trace: rec})

			compareRuns(t, "traced", plain, traced)
			// And the recorder actually saw the run.
			if len(rec.Events()) == 0 {
				t.Error("recorder captured no events")
			}
		})
	}
}

// TestTraceEngineByteIdentical: both world engines must yield the same
// recorded stream — the exported trace and metrics files are compared as
// raw bytes. Together with `make race` this pins the obs concurrency
// contract: per-rank shards are written without locks, yet the pool
// engine produces the sequential engine's bytes.
func TestTraceEngineByteIdentical(t *testing.T) {
	_, seqRec := traceCase(t, false, 8)
	_, poolRec := traceCase(t, true, 8)

	var seqTrace, poolTrace bytes.Buffer
	if err := seqRec.WriteTrace(&seqTrace); err != nil {
		t.Fatal(err)
	}
	if err := poolRec.WriteTrace(&poolTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqTrace.Bytes(), poolTrace.Bytes()) {
		t.Error("trace export differs between engines")
	}

	var seqMet, poolMet bytes.Buffer
	if err := seqRec.WriteMetrics(&seqMet); err != nil {
		t.Fatal(err)
	}
	if err := poolRec.WriteMetrics(&poolMet); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqMet.Bytes(), poolMet.Bytes()) {
		t.Errorf("metrics export differs between engines:\n--- seq ---\n%s\n--- pool ---\n%s",
			seqMet.String(), poolMet.String())
	}
}

// TestTraceGolden pins the exact Chrome trace-event bytes of a small
// Distributed Southwell run. Everything upstream is deterministic — the
// partition, the simulated α-β-γ clock, the shortest-round-trip float
// formatting — so any diff here means either the event stream or the
// export format changed; regenerate with `go test ./internal/dmem
// -run TestTraceGolden -update` and review the diff.
func TestTraceGolden(t *testing.T) {
	_, rec := traceCase(t, false, 5)
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_ds_12x12_p4.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := buf.Bytes(), want
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		snip := func(b []byte) string {
			hi := i + 60
			if hi > len(b) {
				hi = len(b)
			}
			return string(b[lo:hi])
		}
		t.Errorf("trace diverges from golden at byte %d:\ngot  ...%s...\nwant ...%s...\n(regenerate with -update if the change is intended)",
			i, snip(got), snip(exp))
	}
}
