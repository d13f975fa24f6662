// Package bench regenerates every table and figure of the paper's
// evaluation (Figures 2, 5, 6, 7, 8, 9 and Tables 2, 3, 4) on the
// synthetic suite and simulated runtime, printing rows/series in the same
// layout the paper reports. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// The suite drivers support two axes of real parallelism on top of the
// simulated one: Config.Par fans independent (matrix, method) runs out over
// bounded workers, and Config.Goroutines runs each simulated world's rank
// phases on the shared worker pool. Both are bit-identical to the sequential paths
// (runs are cached by key and each world is deterministic), so table output
// does not depend on either setting.
package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/obs"
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
	// Par bounds how many suite runs execute concurrently: the table and
	// figure drivers fan their (matrix, method, ranks) runs out over Par
	// worker goroutines, each running its own simulated world. 0 or 1 runs
	// sequentially. Output is identical for every value of Par.
	Par int
	// Goroutines runs each simulated world's rank phases on the shared
	// kernel pool (bit-identical results; see the dmem engine-equivalence
	// tests).
	Goroutines bool
	// Dense disables the active-set step engine (see core.DistOptions).
	// Bit-identical either way, so it too stays out of the run-cache key.
	Dense bool
	// LogW, when non-nil, receives verbose driver progress: cells skipped
	// via the run cache and setups shared via the setup cache (-v in
	// cmd/benchtables). Logging never changes results.
	LogW io.Writer
	// Local selects the subdomain solver for suite runs (default
	// dmem.LocalGS, the paper's setting).
	Local dmem.LocalSolver
	// Model overrides the α-β-γ cost model (nil = rma.DefaultCostModel()).
	Model *rma.CostModel
	// Faults, when non-nil, injects deterministic faults into every suite
	// run (see rma.FaultPlan). The Chaos driver varies plans per run by
	// adjusting this field on its per-run config copies.
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

func (c Config) par() int {
	if c.Par > 1 {
		return c.Par
	}
	return 1
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
// budget, seed, local solver, the *resolved* cost model (so nil and an
// explicit default are one entry), and the fault plan (canonicalized to a
// string — FaultPlan holds a map and a slice and is not comparable). Only
// the engine flags (Par, Goroutines) are deliberately excluded: they do
// not change results.
type runKey struct {
	name   string
	method core.DistMethod
	ranks  int
	steps  int
	seed   int64
	local  dmem.LocalSolver
	model  rma.CostModel
	chaos  string
}

func (c Config) costModel() rma.CostModel {
	if c.Model == nil {
		return rma.DefaultCostModel()
	}
	return *c.Model
}

// chaosKey canonicalizes a fault plan for the run cache. fmt prints map
// keys in sorted order, so the representation is deterministic.
func chaosKey(p *rma.FaultPlan) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%+v", *p)
}

var (
	runMu    sync.Mutex
	runCache = map[runKey]*dmem.Result{}
	matMu    sync.Mutex
	matCache = map[string]*sparse.CSR{}
	partMu   sync.Mutex
	pCache   = map[string][]int{}
	setupMu  sync.Mutex
	sCache   = map[setupKey]*dmem.Setup{}
)

// logf writes verbose driver progress to cfg.LogW, if configured.
func (c Config) logf(format string, args ...any) {
	if c.LogW != nil {
		fmt.Fprintf(c.LogW, format, args...)
	}
}

// matrixFor builds (and caches) a scaled suite matrix. The build runs
// outside the cache lock so concurrent workers on different matrices do
// not serialize; two workers racing on the same name both build, and the
// first store wins (the builds are deterministic and identical).
func matrixFor(name string) (*sparse.CSR, error) {
	matMu.Lock()
	if a, ok := matCache[name]; ok {
		matMu.Unlock()
		return a, nil
	}
	matMu.Unlock()
	e, ok := problem.SuiteByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown suite matrix %q", name)
	}
	a := e.Build()
	matMu.Lock()
	defer matMu.Unlock()
	if prev, ok := matCache[name]; ok {
		return prev, nil
	}
	matCache[name] = a
	return a, nil
}

func partitionFor(name string, a *sparse.CSR, ranks int, seed int64) []int {
	key := fmt.Sprintf("%s/%d/%d", name, ranks, seed)
	partMu.Lock()
	if p, ok := pCache[key]; ok {
		partMu.Unlock()
		return p
	}
	partMu.Unlock()
	p := partition.Partition(a, ranks, partition.Options{Seed: seed})
	partMu.Lock()
	defer partMu.Unlock()
	if prev, ok := pCache[key]; ok {
		return prev
	}
	pCache[key] = p
	return p
}

// setupKey identifies one shared preprocessing unit: everything that
// changes the partition, layout, or local factorizations — and nothing
// else. Model and Faults are deliberately absent: they shape the *run*
// (runKey distinguishes them) but not the setup, so every method, cost
// model, and fault plan on the same (matrix, ranks, seed, local) cell
// shares one setup.
type setupKey struct {
	name  string
	ranks int
	seed  int64
	local dmem.LocalSolver
}

// setupFor builds (and caches) the shared (partition, layout, local
// factorization) preprocessing of one suite cell. Same locking idiom as
// matrixFor: build outside the lock, first store wins.
func setupFor(name string, ranks int, seed int64, local dmem.LocalSolver) (*dmem.Setup, error) {
	key := setupKey{name: name, ranks: ranks, seed: seed, local: local}
	setupMu.Lock()
	if s, ok := sCache[key]; ok {
		setupMu.Unlock()
		return s, nil
	}
	setupMu.Unlock()
	a, err := matrixFor(name)
	if err != nil {
		return nil, err
	}
	part := partitionFor(name, a, ranks, seed)
	l, err := dmem.NewLayout(a, part, ranks)
	if err != nil {
		return nil, err
	}
	s, err := dmem.NewSetup(l, local)
	if err != nil {
		return nil, err
	}
	setupMu.Lock()
	defer setupMu.Unlock()
	if prev, ok := sCache[key]; ok {
		return prev, nil
	}
	sCache[key] = s
	return s, nil
}

// keyFor is the run-cache key of one suite cell under this config.
func (c Config) keyFor(name string, method core.DistMethod, ranks, steps int) runKey {
	return runKey{
		name: name, method: method, ranks: ranks, steps: steps,
		seed: c.seed(), local: c.Local, model: c.costModel(),
		chaos: chaosKey(c.Faults),
	}
}

// runSuite runs (with caching) one method on one suite matrix, using the
// config's seed and world engine. Partitioning, layout construction, and
// local factorization go through the setup cache, so every method/table
// cell on the same (matrix, ranks) pays for them exactly once.
func runSuite(cfg Config, name string, method core.DistMethod, ranks, steps int) (*dmem.Result, error) {
	key := cfg.keyFor(name, method, ranks, steps)
	runMu.Lock()
	if r, ok := runCache[key]; ok {
		runMu.Unlock()
		return r, nil
	}
	runMu.Unlock()

	setup, err := setupFor(name, ranks, cfg.seed(), cfg.Local)
	if err != nil {
		return nil, err
	}
	a := setup.Layout.A
	b, x := problem.ZeroBSystem(a, cfg.seed())
	opt := core.DistOptions{
		Method: method, Ranks: ranks, Steps: steps, Setup: setup,
		Parallel: cfg.Goroutines, Dense: cfg.Dense,
		Local: cfg.Local, Model: cfg.Model, Faults: cfg.Faults,
	}
	// Trace hook: any table/figure run can dump its per-rank timeline.
	// Cached runs skip this path, so each run key is exported exactly once
	// (by whichever call executed the world). No kernel-pool snapshot is
	// attached here: the pool counters are process-global, so a per-run
	// delta is only well-defined when exactly one run is in flight — under
	// the -par prefetch driver it would absorb concurrent runs' regions
	// and the exported bytes would stop being a pure function of the run
	// (cmd/dsouthwell, which solves exactly once per process, keeps it).
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
	runMu.Lock()
	defer runMu.Unlock()
	if prev, ok := runCache[key]; ok {
		return prev, nil
	}
	runCache[key] = res
	return res, nil
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
	write := func(dir, suffix string, fn func(io.Writer) error) error {
		if dir == "" {
			return nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, base+suffix))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(cfg.TraceDir, ".trace.json", rec.WriteTrace); err != nil {
		return err
	}
	return write(cfg.MetricsDir, ".metrics.txt", rec.WriteMetrics)
}

// runJob identifies one suite run for the concurrent driver.
type runJob struct {
	name   string
	method core.DistMethod
	ranks  int
	steps  int
}

// suiteJobs is the cross product names × rankCounts × methods at a fixed
// step budget, in deterministic order.
func suiteJobs(names []string, methods []core.DistMethod, rankCounts []int, steps int) []runJob {
	jobs := make([]runJob, 0, len(names)*len(rankCounts)*len(methods))
	for _, name := range names {
		for _, r := range rankCounts {
			for _, m := range methods {
				jobs = append(jobs, runJob{name: name, method: m, ranks: r, steps: steps})
			}
		}
	}
	return jobs
}

// prefetch executes the given runs with up to cfg.par() concurrent worlds,
// populating the run cache so the table printers read memoized results in
// their own (deterministic) order. A no-op when Par <= 1: the printers
// compute lazily through runSuite exactly as before (which still shares
// setups through the setup cache).
func prefetch(cfg Config, jobs []runJob) error {
	par := cfg.par()
	if par <= 1 || len(jobs) <= 1 {
		return nil
	}
	// Drop jobs whose results are already cached (Tables 2-4 overlap on the
	// to-target step budget): no world needs to run for them at all.
	fresh := jobs[:0:0]
	for _, j := range jobs {
		key := cfg.keyFor(j.name, j.method, j.ranks, j.steps)
		runMu.Lock()
		_, hit := runCache[key]
		runMu.Unlock()
		if hit {
			cfg.logf("bench: cache skip %s %s p=%d steps=%d\n", j.name, j.method, j.ranks, j.steps)
			continue
		}
		fresh = append(fresh, j)
	}
	if len(fresh) == 0 {
		return nil
	}
	// Stage 1: distinct (matrix, ranks) setups — matrix generation,
	// partitioning, layout, and local factorization each happen once, in
	// parallel, through the setup cache; every method cell then shares the
	// result immutably.
	type prepKey struct {
		name  string
		ranks int
	}
	var preps []prepKey
	seen := map[prepKey]bool{}
	for _, j := range fresh {
		k := prepKey{j.name, j.ranks}
		if !seen[k] {
			seen[k] = true
			preps = append(preps, k)
		}
	}
	if err := forEachPar(par, len(preps), func(i int) error {
		setupMu.Lock()
		_, hit := sCache[setupKey{name: preps[i].name, ranks: preps[i].ranks, seed: cfg.seed(), local: cfg.Local}]
		setupMu.Unlock()
		if hit {
			cfg.logf("bench: setup cache hit %s p=%d\n", preps[i].name, preps[i].ranks)
		}
		_, err := setupFor(preps[i].name, preps[i].ranks, cfg.seed(), cfg.Local)
		return err
	}); err != nil {
		return err
	}
	// Stage 2: the runs themselves, one simulated world per worker slot.
	return forEachPar(par, len(fresh), func(i int) error {
		_, err := runSuite(cfg, fresh[i].name, fresh[i].method, fresh[i].ranks, fresh[i].steps)
		return err
	})
}

// forEachPar runs fn(i) for i in [0, n) over up to par worker goroutines
// and returns the lowest-index error, if any.
func forEachPar(par, n int, fn func(i int) error) error {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ResetCaches clears memoized matrices and runs (for benchmarks that must
// measure cold work).
func ResetCaches() {
	runMu.Lock()
	runCache = map[runKey]*dmem.Result{}
	runMu.Unlock()
	matMu.Lock()
	matCache = map[string]*sparse.CSR{}
	matMu.Unlock()
	partMu.Lock()
	pCache = map[string][]int{}
	partMu.Unlock()
	setupMu.Lock()
	sCache = map[setupKey]*dmem.Setup{}
	setupMu.Unlock()
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
