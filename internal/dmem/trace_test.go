package dmem

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceCase runs Distributed Southwell on a small fixed Poisson problem
// with a fresh recorder and returns both.
func traceCase(t *testing.T, parallel bool, steps int) (*Result, *obs.Recorder) {
	t.Helper()
	s, b, x := buildCase(t, problem.Poisson2D(12, 12), 4, 1)
	rec := obs.NewRecorderCap(4, 4096)
	rec.SetLabel("golden ds")
	res := DistributedSouthwell(s, b, x, Config{Steps: steps, Parallel: parallel, Trace: rec})
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
			s, b, x := buildCase(t, a, 6, 1)
			plain := run(s, b, x, Config{Steps: 12})
			s2, b2, x2 := buildCase(t, a, 6, 1)
			rec := obs.NewRecorder(6)
			traced := run(s2, b2, x2, Config{Steps: 12, Trace: rec})

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

// shardsOf splits a recorder's retained events into the control track and
// one track per rank, each in emit order.
func shardsOf(rec *obs.Recorder) (control []obs.Event, ranks [][]obs.Event) {
	ranks = make([][]obs.Event, rec.Ranks())
	for _, e := range rec.Events() {
		if e.Rank == obs.ControlRank {
			control = append(control, e)
		} else {
			ranks[e.Rank] = append(ranks[e.Rank], e)
		}
	}
	return control, ranks
}

// TestActiveTraceIsDenseTraceMinusSleepers pins the one stream that differs
// between an unpinned and a pinned traced run. A tracer does not pin: on a
// point load most ranks sleep with the recorder installed, results stay
// bit-identical to Dense, and the trace is the Dense trace minus what
// sleeping ranks would have logged — on the control track nothing but the
// occupancy rows is added, and every rank's track is a subsequence of its
// Dense track whose only missing events are hold decisions and cost rows of
// rank-phases that sent nothing and were written nothing. At least one rank
// the wavefront never reaches logs nothing after step 1. On a perfect
// network and under a plan with every fault kind; the traced unpinned run is
// repeated on the pool at every width.
func TestActiveTraceIsDenseTraceMinusSleepers(t *testing.T) {
	const grid, p, steps = 48, 64, 8
	for mname, run := range map[string]method{"DistributedSouthwell": DistributedSouthwell, "ParallelSouthwell": ParallelSouthwell} {
		for _, chaos := range []bool{false, true} {
			name := mname
			if chaos {
				name += "/chaos"
			}
			t.Run(name, func(t *testing.T) {
				a := problem.Poisson2D(grid, grid)
				s, _, _ := buildCase(t, a, p, 1)
				load := a.N/2 + grid/2
				src := 0 // the rank that owns the load
				for !slices.Contains(s.Layout.rows(src), int32(load)) {
					src++
				}
				solve := func(cfg Config) (*Result, *obs.Recorder) {
					b, x := make([]float64, a.N), make([]float64, a.N)
					b[load] = 1
					rec := obs.NewRecorderCap(p, 1024) // nothing may wrap: Dropped is checked below
					cfg.Steps, cfg.Trace = steps, rec
					cfg.watchdog = 4 * steps // no starvation re-announce wakes the far ranks
					if chaos {
						nb := s.Layout.neighbors(src)
						cfg.Faults = &rma.FaultPlan{Seed: 3, DelayProb: 0.25, DelayMax: 3, DupProb: 0.15, ReorderProb: 0.4,
							Stragglers: map[int]float64{int(nb[0]): 2.5}, Pauses: []rma.Pause{{Rank: int(nb[len(nb)-1]), From: 3, To: 9}}}
					}
					res := run(s, b, x, cfg)
					if rec.Dropped() != 0 {
						t.Fatalf("%d events dropped: the rings are too small for the comparison", rec.Dropped())
					}
					return res, rec
				}
				dense, drec := solve(Config{Dense: true})
				active, arec := solve(Config{})
				compareRuns(t, name, dense, active)
				slept := false
				for _, n := range active.ActiveHist {
					slept = slept || n < p
				}
				if !slept {
					t.Fatal("no rank slept with the tracer installed")
				}
				if chaos && (active.Stats.DelayedMsgs == 0 || active.Stats.DupMsgs == 0 || active.Stats.ReorderedBatches == 0 || active.Stats.PausedRankPhases == 0) {
					t.Fatalf("the plan left a fault kind unexercised: %+v", active.Stats)
				}

				dctl, dranks := shardsOf(drec)
				actl, aranks := shardsOf(arec)
				var kept []obs.Event
				for _, e := range actl {
					if e.Kind != obs.KindActiveSet {
						kept = append(kept, e)
					}
				}
				if len(kept) == len(actl) {
					t.Error("unpinned run logged no occupancy row")
				}
				if !reflect.DeepEqual(kept, dctl) {
					t.Errorf("control tracks differ beyond the occupancy rows: %d events vs %d dense", len(kept), len(dctl))
				}
				stepOne := int64(-1) // phases completed when step 1 closed
				for _, e := range dctl {
					if e.Kind == obs.KindStep && e.Step == 1 {
						stepOne = e.Phase
					}
				}
				missing, endAtOne := 0, 0
				for r := range dranks {
					i := 0
					for _, d := range dranks[r] {
						if i < len(aranks[r]) && aranks[r][i] == d {
							i++
							continue
						}
						hold := d.Kind == obs.KindDecision && d.Flag&obs.FlagRelaxed == 0
						quiet := d.Kind == obs.KindRankCost && d.A == 0 && d.B == 0
						if !hold && !quiet {
							t.Fatalf("rank %d: dense event %+v is neither in the unpinned track nor a sleeper's", r, d)
						}
						missing++
					}
					if i != len(aranks[r]) {
						t.Fatalf("rank %d: unpinned event %+v is not in the dense track", r, aranks[r][i])
					}
					if n := len(aranks[r]); n > 0 && aranks[r][n-1].Phase < stepOne {
						endAtOne++
					}
				}
				if missing == 0 || endAtOne == 0 {
					t.Errorf("%d sleeper events left out, %d ranks silent after step 1: want both positive", missing, endAtOne)
				}

				eachWidth(func(k int) {
					pool, prec := solve(Config{Parallel: true})
					compareRuns(t, fmt.Sprintf("%s/w%d", name, k), active, pool)
					if !reflect.DeepEqual(prec.Events(), arec.Events()) {
						t.Errorf("width %d: traced unpinned run logs a different stream than inline", k)
					}
				})
			})
		}
	}
}
