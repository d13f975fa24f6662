// Package bench regenerates every table and figure of the paper's
// evaluation (Figures 2, 5, 6, 7, 8, 9 and Tables 2, 3, 4) on the
// synthetic suite and simulated runtime, printing rows/series in the same
// layout the paper reports, plus the studies beyond it (deadlock, ablation,
// chaos, paper-scale scaling). It is the only experiment driver, and every
// byte it prints is a function of the code and the Config: no experiment
// reads a clock. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// Each experiment names its suite runs once (runSet), and they run one per
// block of parallel.For, at parallel.Workers() wide. Runs are memoized by
// key and each world is deterministic, so table output does not depend on
// the width.
package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sync"

	"southwell/internal/cli"
	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/obs"
	"southwell/internal/parallel"
	"southwell/internal/partition"
	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// Config scales the experiments. The zero value reproduces the defaults
// used in EXPERIMENTS.md.
type Config struct {
	// Ranks is the simulated process count for suite experiments
	// (default 256 — the paper's 8192 scaled with matrix size).
	Ranks int
	// Steps is the per-run parallel-step budget (default 60 for the
	// to-target tables, 50 for per-step and figure experiments; see
	// EXPERIMENTS.md for why the to-target budget is 60 here vs the
	// paper's 50).
	Steps int
	// Quick shrinks the experiment (fewer matrices, fewer rank counts)
	// for tests and smoke runs.
	Quick bool
	// Seed drives initial guesses and partitions.
	Seed int64
	// Faults, when non-nil, injects deterministic message delays into every
	// suite run (see rma.FaultPlan). Chaos varies plans per run by adjusting
	// this field on its per-run config copies.
	Faults *rma.FaultPlan
	// ChaosSeed seeds the delay plans the Chaos driver builds (default 1).
	ChaosSeed int64
	// TraceDir, when non-empty, makes every non-cached suite run record a
	// structured event trace (internal/obs) and write it as Chrome
	// trace-event JSON — one <run>.trace.json per (matrix, method, ranks,
	// steps) — into this directory. Tracing never changes results.
	TraceDir string
	// MetricsDir, like TraceDir, but writes the plain-text per-rank /
	// per-step metrics summary as <run>.metrics.txt.
	MetricsDir string
}

func (c Config) ranks() int {
	if c.Ranks > 0 {
		return c.Ranks
	}
	if c.Quick {
		return 64
	}
	return 256
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) stepsOr(def int) int {
	if c.Steps > 0 {
		return c.Steps
	}
	return def
}

// Target is the paper's accuracy target for Tables 2-3 and Figure 8.
const Target = 0.1

// suiteNames returns the matrices a config runs.
func (c Config) suiteNames() []string {
	if c.Quick {
		return []string{"Hook_1498", "msdoor", "af_5_k101"}
	}
	return problem.SuiteNames()
}

// runKey caches distributed runs shared between tables. Every
// result-changing setting is part of the key: matrix, method, ranks, step
// budget, seed, and the fault plan (by value, as a string, so equal plans
// behind different pointers share an entry). Every suite run relaxes with
// one Gauss-Seidel sweep (dmem.LocalGS, the paper's setting).
type runKey struct {
	name   string
	method core.DistMethod
	ranks  int
	steps  int
	seed   int64
	chaos  string
}

// chaosKey canonicalizes a fault plan for the run cache: its three numbers,
// printed by field name.
func chaosKey(p *rma.FaultPlan) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%+v", *p)
}

// memo is the driver's one cache: a value is built once per key, by the
// first caller to ask for it. A concurrent caller of the same key waits for
// that build instead of starting a duplicate (at P = 8192 a duplicate setup
// is ~0.4 s and tens of MB); callers of different keys build in parallel,
// since the lock covers only the map. Errors are memoized like values — the
// builds are deterministic.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (c *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		if c.m == nil {
			c.m = map[K]*memoEntry[V]{}
		}
		e = new(memoEntry[V])
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

func (c *memo[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

var (
	matrices memo[string, *sparse.CSR]
	layouts  memo[setupKey, *dmem.Layout] // keyed with local zeroed: a layout does not depend on it
	setups   memo[setupKey, *dmem.Setup]
	runs     memo[runKey, *dmem.Result]
)

// matrixFor builds (and memoizes) a scaled suite matrix.
func matrixFor(name string) (*sparse.CSR, error) {
	return matrices.get(name, func() (*sparse.CSR, error) {
		e, ok := problem.SuiteByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown suite matrix %q", name)
		}
		return e.Build(), nil
	})
}

// setupKey identifies one shared preprocessing unit: everything that
// changes the partition, layout, or local factorizations — and nothing
// else. Faults is deliberately absent: it shapes the *run* (runKey
// distinguishes it) but not the setup, so every method and fault plan on
// the same (matrix, ranks, seed, local) cell shares one setup.
type setupKey struct {
	name  string
	ranks int
	seed  int64
	local dmem.LocalSolver
}

// setupFor builds (and memoizes) the shared (partition, layout, local
// factorization) preprocessing of one suite cell. The layout is its own
// memo entry, so the local-solver variants of a cell share one.
func setupFor(name string, ranks int, seed int64, local dmem.LocalSolver) (*dmem.Setup, error) {
	key := setupKey{name: name, ranks: ranks, seed: seed, local: local}
	return setups.get(key, func() (*dmem.Setup, error) {
		l, err := layouts.get(setupKey{name: name, ranks: ranks, seed: seed}, func() (*dmem.Layout, error) {
			a, err := matrixFor(name)
			if err != nil {
				return nil, err
			}
			return dmem.NewLayout(a, partition.Partition(a, ranks, partition.Options{Seed: seed}), ranks)
		})
		if err != nil {
			return nil, err
		}
		return dmem.NewSetup(l, local)
	})
}

// keyFor is the run-cache key of one suite cell under this config.
func (c Config) keyFor(name string, method core.DistMethod, ranks, steps int) runKey {
	return runKey{
		name: name, method: method, ranks: ranks, steps: steps,
		seed: c.seed(), chaos: chaosKey(c.Faults),
	}
}

// distOptions is where a Config becomes solver options: every run of every
// experiment sees the same fault plan.
func (c Config) distOptions(method core.DistMethod, ranks, steps int) core.DistOptions {
	return core.DistOptions{
		Method: method, Ranks: ranks, Steps: steps, PartSeed: c.seed(),
		Faults: c.Faults,
	}
}

// runSuite runs (memoized) one method on one suite matrix, using the
// config's seed and world engine. Partitioning, layout construction, and
// local factorization go through setupFor, so every method/table cell on
// the same (matrix, ranks) pays for them exactly once.
func runSuite(cfg Config, name string, method core.DistMethod, ranks, steps int) (*dmem.Result, error) {
	key := cfg.keyFor(name, method, ranks, steps)
	return runs.get(key, func() (*dmem.Result, error) {
		setup, err := setupFor(name, ranks, cfg.seed(), dmem.LocalGS)
		if err != nil {
			return nil, err
		}
		a := setup.Layout.A
		b, x := problem.ZeroBSystem(a, cfg.seed())
		opt := cfg.distOptions(method, ranks, steps)
		opt.Setup = setup
		// Trace hook: any table/figure run can dump its per-rank timeline.
		// Memoized runs skip this path, so each run key is exported exactly
		// once (by whichever call executed the world).
		var rec *obs.Recorder
		if cfg.TraceDir != "" || cfg.MetricsDir != "" {
			rec = obs.NewRecorder(ranks)
			rec.SetLabel(traceBase(key))
			opt.Trace = rec
		}
		res, err := core.SolveDistributed(a, b, x, opt)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			if err := exportRun(cfg, key, rec); err != nil {
				return nil, err
			}
		}
		return res, nil
	})
}

// traceBase is the per-run file stem: matrix, method, ranks, and step
// budget, plus a short hash of the fault plan when one is installed (the
// Chaos driver runs several plans over the same key prefix).
func traceBase(key runKey) string {
	base := fmt.Sprintf("%s_%s_p%d_s%d", key.name, key.method, key.ranks, key.steps)
	if key.chaos != "" {
		h := fnv.New32a()
		io.WriteString(h, key.chaos)
		base = fmt.Sprintf("%s_chaos%08x", base, h.Sum32())
	}
	return base
}

// exportRun writes a run's trace and/or metrics files per the config.
func exportRun(cfg Config, key runKey, rec *obs.Recorder) error {
	base := traceBase(key)
	if cfg.TraceDir != "" {
		if err := cli.WriteFile(filepath.Join(cfg.TraceDir, base+".trace.json"), rec.WriteTrace); err != nil {
			return err
		}
	}
	if cfg.MetricsDir != "" {
		return cli.WriteFile(filepath.Join(cfg.MetricsDir, base+".metrics.txt"), rec.WriteMetrics)
	}
	return nil
}

// suiteRuns holds the results of one runSet call in block order.
type suiteRuns struct {
	names, ranks int
	res          []*dmem.Result
}

// at returns the run of the n-th name at the r-th rank count under the
// m-th method, indexed as in the runSet call that made s.
func (s suiteRuns) at(n, r, m int) *dmem.Result {
	return s.res[(m*s.names+n)*s.ranks+r]
}

// runSet runs the cross product names × rankCounts × methods at one step
// budget through runSuite's memo, one run per parallel.For block, and
// returns every result or the error of the lowest-index failing run. The
// method varies slowest in block order, so the blocks running at one time
// are different (matrix, ranks) cells and build their setups in parallel
// instead of one waiting on the other's memo entry. Runs already memoized
// (Tables 2-4 overlap on the to-target budget) return at once.
func runSet(cfg Config, names []string, methods []core.DistMethod, rankCounts []int, steps int) (suiteRuns, error) {
	s := suiteRuns{names: len(names), ranks: len(rankCounts),
		res: make([]*dmem.Result, len(methods)*len(names)*len(rankCounts))}
	errs := make([]error, len(s.res))
	parallel.For(len(s.res), func(j int) {
		m, n, r := j/(s.names*s.ranks), j/s.ranks%s.names, j%s.ranks
		s.res[j], errs[j] = runSuite(cfg, names[n], methods[m], rankCounts[r], steps)
	})
	for _, err := range errs {
		if err != nil {
			return suiteRuns{}, err
		}
	}
	return s, nil
}

// ResetCaches clears memoized matrices, layouts, setups and runs (for
// benchmarks that must measure cold work).
func ResetCaches() {
	matrices.reset()
	layouts.reset()
	setups.reset()
	runs.reset()
}

// dagger formats a float with a † for missing values, like the paper.
func dagger(v float64, ok bool, format string) string {
	if !ok {
		return "†"
	}
	return fmt.Sprintf(format, v)
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
