package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/obs"
	"southwell/internal/parallel"
	"southwell/internal/partition"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// Repetition counts. They are the same on every commit; only the number of
// solve rounds inside the -seconds window varies with the host's speed,
// between the two limits.
const (
	setupReps       = 5   // untraced: full set-ups per run, median reported
	tracedSetupReps = 2   // traced: set-ups per width
	minRepsPerDraw  = 3   // untraced: timed DS solves per draw at least
	maxSolveReps    = 400 // and at most
	minTracedRounds = 1   // traced: timed rounds over all variants at least (after the warm-up round)
	probeReps       = 3   // rma micro-probe repetitions
	probePhases     = 200 // RunPhase calls per probe repetition
)

// obsEventBudget caps the obs ring memory of the traced solve: the default
// 4096 events per rank would be 1.4 GB at P = 4096.
const obsEventBudget = 1 << 17

// mcWidth is the multi-core width: never more than four threads.
func mcWidth() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setWidth fixes both the scheduler width and the kernel pool's.
func setWidth(procs int) {
	runtime.GOMAXPROCS(procs)
	parallel.SetDefaultWorkers(procs)
}

// instance is a workload's built problem: what set-up produces and every
// solve reads.
type instance struct {
	w     *workload
	a     *sparse.CSR
	draws []draw
	part  []int
	setup *dmem.Setup
}

// draw is one right-hand side and initial guess. Set-up makes the first; an
// untraced run then cycles its solves over the workload's Draws of them, all
// made from the seed: how fast DS converges depends strongly on the draw
// (the final norm varies fifteen-fold on direct64), so a number taken on one
// draw says little about the next seed's.
type draw struct{ b, x0 []float64 }

// addDraw appends the instance's next draw.
func (inst *instance) addDraw(seed int64) {
	j := int64(len(inst.draws))
	b, x0 := inst.w.rhs(inst.a, (seed-1)*int64(inst.w.Draws)+j+1)
	inst.draws = append(inst.draws, draw{b, x0})
}

// partitionSeed is fixed: the partitioner's seed is part of the solver's
// configuration, not of the problem, and letting -seed drive it moved the
// solve time by ±10% from seed to seed without measuring anything new.
const partitionSeed = 1

// heapAllocMB is the live heap after a full collection.
func heapAllocMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// buildInstance is the set-up every workload pays: generate, scale, right
// hand side, partition, layout, local factorisation. Each call into a layer
// gets a span under parent (none on a nil recorder). With probeHeap the
// layout's retained heap is measured by collecting around NewLayout,
// outside the child spans.
func buildInstance(w *workload, seed int64, rec *spanRecorder, parent int, probeHeap bool) (inst *instance, layoutHeapMB float64, err error) {
	stage := func(name string, f func()) {
		id := rec.begin(w.Name, name, parent)
		f()
		rec.end(id)
	}
	inst = &instance{w: w}
	stage("generate", func() { inst.a, err = w.generate() })
	if err != nil {
		return nil, 0, err
	}
	stage("scale", func() { _, err = sparse.Scale(inst.a) })
	if err != nil {
		return nil, 0, err
	}
	stage("rhs", func() { inst.addDraw(seed) })
	stage("partition", func() {
		inst.part = partition.Partition(inst.a, w.Ranks, partition.Options{Seed: partitionSeed})
	})
	var h0 float64
	if probeHeap {
		h0 = heapAllocMB()
	}
	var l *dmem.Layout
	stage("layout", func() { l, err = dmem.NewLayout(inst.a, inst.part, w.Ranks) })
	if err != nil {
		return nil, 0, err
	}
	if probeHeap {
		layoutHeapMB = heapAllocMB() - h0
	}
	stage("factor", func() { inst.setup, err = dmem.NewSetup(l, w.Local) })
	if err != nil {
		return nil, 0, err
	}
	return inst, layoutHeapMB, nil
}

// variant is one way of running a solve on an instance.
type variant struct {
	name   string
	method core.DistMethod
	mc     bool // width mc on the pool engine; otherwise w1, sequential
	sched  rma.Sched
	dense  bool
	obs    bool // with an obs.Recorder installed, exported afterwards
}

var (
	dsVariant      = variant{name: "ds", method: core.DistSWD}
	tracedVariants = []variant{
		dsVariant,
		{name: "ps", method: core.ParallelSWD},
		{name: "bj", method: core.BlockJacobi},
		{name: "ds_dense", method: core.DistSWD, dense: true},
		{name: "ds_obs", method: core.DistSWD, obs: true},
		{name: "ds_mc", method: core.DistSWD, mc: true, sched: rma.SchedBarrier},
		{name: "ds_nbr_mc", method: core.DistSWD, mc: true, sched: rma.SchedNeighbor},
	}
)

// variantRun collects the timed repetitions of one variant.
type variantRun struct {
	v        variant
	times    []float64   // host seconds per timed rep (self time of the span when traced)
	norm     [][]float64 // per draw: normalised seconds per timed rep
	allocMB  []float64   // TotalAlloc delta per timed rep
	refS     []float64   // the reference kernel's time around each timed rep
	verifyS  []float64
	oracleS  []float64
	exportS  []float64
	exportMB float64
	events   int64
	dropped  int64
}

// normalised is the variant's host-speed-normalised solve time: the median
// over each draw's repetitions, averaged over the draws.
func (vr *variantRun) normalised() float64 {
	sum := 0.0
	for _, xs := range vr.norm {
		sum += median(xs)
	}
	return sum / float64(len(vr.norm))
}

// solver runs variants on one instance and checks every result.
type solver struct {
	inst  *instance
	pass  *passResult
	rec   *spanRecorder
	root  int
	ref   *refKernel
	refs  map[core.DistMethod][]*dmem.Result // per method and draw, the first result: the identity reference
	r     []float64                          // oracle scratch
	width int
}

func newSolver(inst *instance, ref *refKernel, pass *passResult, rec *spanRecorder, root int) *solver {
	return &solver{inst: inst, pass: pass, rec: rec, root: root, ref: ref,
		refs: map[core.DistMethod][]*dmem.Result{}, r: make([]float64, inst.a.N)}
}

// countingWriter measures an export without keeping it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// rep runs one solve of vr's variant on draw d, between two runs of the
// reference kernel. The collection before and the checks after are outside
// the timed region; timed=false is the warm-up that lets pools and lazy
// scratch fill and becomes the identity reference.
func (s *solver) rep(vr *variantRun, d int, timed bool) {
	w, v, in := s.inst.w, vr.v, s.inst.draws[d]
	procs := 1
	if v.mc {
		procs = mcWidth()
	}
	if s.width != procs {
		setWidth(procs)
		s.width = procs
	}
	opt := core.DistOptions{
		Method: v.method, Ranks: w.Ranks, Steps: w.Steps, Setup: s.inst.setup, Local: w.Local,
		Parallel: v.mc, Sched: v.sched, Dense: v.dense,
	}
	var orec *obs.Recorder
	if v.obs {
		perRank := obsEventBudget / w.Ranks
		if perRank > obs.DefaultShardCap {
			perRank = obs.DefaultShardCap
		}
		orec = obs.NewRecorderCap(w.Ranks, perRank)
		opt.Trace = orec
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	refBefore := s.ref.run()
	sp := s.rec.begin(w.Name, "solve."+v.name, s.root)
	t0 := time.Now()
	res, err := core.SolveDistributed(s.inst.a, in.b, in.x0, opt)
	dt := time.Since(t0)

	rid := s.rec.begin(w.Name, "ref", sp)
	refT := (refBefore + s.ref.run()) / 2
	s.rec.end(rid)

	vid := s.rec.begin(w.Name, "verify", sp)
	runtime.ReadMemStats(&m1)
	tv := time.Now()
	var oracle time.Duration
	if err == nil {
		if s.refs[v.method] == nil {
			s.refs[v.method] = make([]*dmem.Result, len(s.inst.draws))
		}
		ref := s.refs[v.method][d]
		if ref == nil {
			s.refs[v.method][d] = res
		}
		oracle, err = checkResult(s.inst.a, in.b, res, ref, s.r)
	}
	s.pass.op(fmt.Sprintf("%s/%s/draw%d", w.Name, v.name, d), err)
	verify := time.Since(tv)
	s.rec.end(vid)

	var export time.Duration
	if orec != nil {
		eid := s.rec.begin(w.Name, "export", sp)
		te := time.Now()
		var cw countingWriter
		if werr := orec.WriteTrace(&cw); werr != nil {
			s.pass.op(w.Name+"/"+v.name+"/export", werr)
		}
		export = time.Since(te)
		s.rec.end(eid)
		vr.exportMB = float64(cw.n) / 1e6
		vr.events = int64(len(orec.Events()))
		vr.dropped = orec.Dropped()
		s.rec.count(eid, "events", float64(vr.events))
	}
	if res != nil {
		s.rec.count(sp, "msgs", float64(res.Stats.TotalMsgs()))
		s.rec.count(sp, "relaxations", float64(res.Final().Relaxations))
		s.rec.count(sp, "active_rank_steps", float64(activeRankSteps(res)))
	}
	s.rec.end(sp)
	if !timed {
		return
	}
	if s.rec != nil {
		dt = s.rec.selfTime(sp)
	}
	if vr.norm == nil {
		vr.norm = make([][]float64, len(s.inst.draws))
	}
	vr.times = append(vr.times, dt.Seconds())
	vr.norm[d] = append(vr.norm[d], dt.Seconds()/refT.Seconds()*refNominalS)
	vr.allocMB = append(vr.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	vr.refS = append(vr.refS, refT.Seconds())
	vr.verifyS = append(vr.verifyS, verify.Seconds())
	vr.oracleS = append(vr.oracleS, oracle.Seconds())
	if orec != nil {
		vr.exportS = append(vr.exportS, export.Seconds())
	}
}

// rounds runs one warm-up of every variant on every draw of the instance,
// then timed rounds over all variants in turn (so a noise burst hits them
// alike), one draw per round, until budget has passed, warm-up included,
// and at least minRounds are in, or maxRounds are.
func (s *solver) rounds(runs []*variantRun, budget time.Duration, minRounds, maxRounds int) {
	start := time.Now()
	draws := len(s.inst.draws)
	for d := 0; d < draws; d++ {
		for _, vr := range runs {
			s.rep(vr, d, false)
		}
	}
	for n := 0; n < maxRounds && (n < minRounds || time.Since(start) < budget); n++ {
		for _, vr := range runs {
			s.rep(vr, n%draws, true)
		}
	}
}

// activeRankSteps is Σ ActiveHist, or P·steps for a run that stepped densely.
func activeRankSteps(res *dmem.Result) int {
	if len(res.ActiveHist) == 0 {
		return res.P * res.Final().Step
	}
	sum := 0
	for _, n := range res.ActiveHist {
		sum += n
	}
	return sum
}

// checkResult is the correctness check of one solve. The last part is the
// oracle: the true residual ‖b − A·X‖ recomputed from scratch, which shares
// no code with the engines, must agree with the norm the run maintained. It
// returns the time the oracle's kernel took.
func checkResult(a *sparse.CSR, b []float64, res, ref *dmem.Result, r []float64) (oracle time.Duration, err error) {
	if res.Deadlocked {
		return 0, fmt.Errorf("deadlocked at step %d", res.DeadlockStep)
	}
	for _, h := range res.History {
		if math.IsNaN(h.ResNorm) || math.IsInf(h.ResNorm, 0) {
			return 0, fmt.Errorf("step %d: residual norm %v", h.Step, h.ResNorm)
		}
	}
	if ref != nil {
		if err := sameResult(res, ref); err != nil {
			return 0, fmt.Errorf("not bit-identical to the first %s run: %w", ref.Method, err)
		}
	}
	t0 := time.Now()
	truth := a.ResidualNorm2(b, res.X, r)
	oracle = time.Since(t0)
	fin := res.Final().ResNorm
	if d := math.Abs(truth - fin); !(d <= 1e-9*math.Max(truth, fin)) {
		return oracle, fmt.Errorf("true residual %.17g differs from the run's %.17g", truth, fin)
	}
	return oracle, nil
}

// sameResult checks bit-identity of two runs: history, statistics, solution.
func sameResult(got, want *dmem.Result) error {
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history lengths %d vs %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		g, w := got.History[i], want.History[i]
		if math.Float64bits(g.ResNorm) != math.Float64bits(w.ResNorm) || math.Float64bits(g.SimTime) != math.Float64bits(w.SimTime) {
			return fmt.Errorf("step %d: norm/sim time %v/%v vs %v/%v", i, g.ResNorm, g.SimTime, w.ResNorm, w.SimTime)
		}
		g.ResNorm, g.SimTime, w.ResNorm, w.SimTime = 0, 0, 0, 0
		if g != w {
			return fmt.Errorf("step %d: %+v vs %+v", i, g, w)
		}
	}
	gs, ws := got.Stats, want.Stats
	if math.Float64bits(gs.SimTime) != math.Float64bits(ws.SimTime) {
		return fmt.Errorf("stats: sim time %v vs %v", gs.SimTime, ws.SimTime)
	}
	gs.SimTime, ws.SimTime = 0, 0
	if gs != ws {
		return fmt.Errorf("stats: %+v vs %+v", gs, ws)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("solution lengths %d vs %d", len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			return fmt.Errorf("solution differs at %d", i)
		}
	}
	return nil
}

// convergence reports the deterministic cost-to-accuracy metrics of the DS
// runs, averaged over the draws. A draw that never crossed the target is a
// failed operation and leaves the to-target metrics out.
func convergence(p *passResult, w *workload, runs []*dmem.Result) {
	var simT, msgs, steps, factor float64
	crossed := true
	for d, ds := range runs {
		t, ok1 := ds.InterpAtNorm(w.Target, func(h dmem.StepStats) float64 { return h.SimTime })
		m, ok2 := ds.InterpAtNorm(w.Target, func(h dmem.StepStats) float64 { return float64(h.TotalMsgs()) })
		st, ok3 := ds.StepsToNorm(w.Target)
		if !(ok1 && ok2 && ok3) {
			p.op(fmt.Sprintf("%s/target/draw%d", w.Name, d), fmt.Errorf("DS never reached ‖r‖ ≤ %g in %d steps (final %g)", w.Target, w.Steps, ds.Final().ResNorm))
			crossed = false
		}
		simT, msgs, steps = simT+t, msgs+m, steps+st
		fin := ds.Final()
		factor += math.Pow(fin.ResNorm/ds.History[0].ResNorm, 1/float64(fin.Step))
	}
	n := float64(len(runs))
	p.set("ds_conv_factor", factor/n)
	if crossed {
		p.set("ds_sim_s_to_target", simT/n)
		p.set("ds_msgs_to_target", msgs/n)
		p.set("ds_steps_to_target", steps/n)
	}
}

// runUntraced is the end-to-end pass: tracing off, width w1 throughout.
func runUntraced(w *workload, seed int64, seconds float64) (*passResult, error) {
	start := time.Now()
	p := newPass(endToEnd)
	defer setWidth(runtime.GOMAXPROCS(0))
	setWidth(1)

	ref := newRefKernel()
	var setupS, setupNorm, heapMB []float64
	var inst *instance
	for i := 0; i < setupReps; i++ {
		inst = nil
		h0 := heapAllocMB()
		refBefore := ref.run()
		t0 := time.Now()
		built, _, err := buildInstance(w, seed, nil, -1, false)
		dt := time.Since(t0)
		refT := (refBefore + ref.run()) / 2
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		inst = built
		setupS = append(setupS, dt.Seconds())
		setupNorm = append(setupNorm, dt.Seconds()/refT.Seconds()*refNominalS)
		heapMB = append(heapMB, heapAllocMB()-h0)
	}
	p.setNormalised("setup_s", median(setupNorm), setupS)
	p.set("setup_heap_mb", median(heapMB))

	for len(inst.draws) < w.Draws {
		inst.addDraw(seed)
	}
	s := newSolver(inst, ref, p, nil, -1)
	ds := &variantRun{v: dsVariant}
	s.rounds([]*variantRun{ds}, time.Duration(seconds*float64(time.Second)), minRepsPerDraw*w.Draws, maxSolveReps)
	p.setNormalised("solve_ds_s", ds.normalised(), ds.times)
	p.set("solve_alloc_mb", median(ds.allocMB))
	if p.Failed == 0 { // every draw has a DS result
		convergence(p, w, s.refs[core.DistSWD])
	}
	p.finish(time.Since(start).Seconds())
	return p, nil
}

// runTraced is the per-layer pass: the harness's span recorder is on, and
// every per-layer time is a span (self time where the span has children).
func runTraced(w *workload, seed int64, seconds float64, rec *spanRecorder, probe rmaProbeResult) (*passResult, error) {
	start := time.Now()
	p := newPass(perLayer)
	defer setWidth(runtime.GOMAXPROCS(0))
	root := rec.begin(w.Name, "workload", -1)
	defer rec.end(root)

	// Set-up at both widths. The first w1 set-up also probes the layout's
	// heap; its instance is the one every solve below reads.
	var inst *instance
	stageS := map[string][]float64{}
	for _, at := range []struct {
		name  string
		procs int
	}{{"setup", 1}, {"setup_mc", mcWidth()}} {
		setWidth(at.procs)
		for i := 0; i < tracedSetupReps; i++ {
			sid := rec.begin(w.Name, at.name, root)
			built, layoutHeap, err := buildInstance(w, seed, rec, sid, inst == nil)
			rec.end(sid)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
			}
			total := 0.0
			for _, c := range rec.spans[sid+1:] { // children were opened after their parent
				if c.Parent == sid {
					stageS[at.name+"/"+c.Name] = append(stageS[at.name+"/"+c.Name], c.dur().Seconds())
					total += c.dur().Seconds()
				}
			}
			stageS[at.name] = append(stageS[at.name], total)
			if inst == nil {
				inst = built
				p.set("dmem.layout_heap_mb", layoutHeap)
				continue
			}
			// The partition must not depend on the width it was built at.
			p.op(w.Name+"/"+at.name+"/partition", samePartition(built.part, inst.part))
		}
	}
	gen := make([]float64, tracedSetupReps)
	for i := range gen {
		gen[i] = stageS["setup/generate"][i] + stageS["setup/rhs"][i]
	}
	p.setTiming("problem.generate_s", gen)
	p.setTiming("sparse.scale_s", stageS["setup/scale"])
	p.setTiming("partition.partition_s", stageS["setup/partition"])
	p.setTiming("dmem.layout_s", stageS["setup/layout"])
	p.setTiming("dmem.factor_s", stageS["setup/factor"])
	p.setTiming("parallel.setup_mc_s", stageS["setup_mc"])
	p.set("parallel.setup_speedup", p10(stageS["setup"])/p10(stageS["setup_mc"]))
	q := partition.Quality(inst.a, inst.part, w.Ranks)
	p.set("partition.edge_cut", float64(q.CutEdges))
	p.set("partition.imbalance", q.Imbalance)
	p.set("partition.max_part", float64(q.MaxSize))

	s := newSolver(inst, newRefKernel(), p, rec, root) // set-up made one draw: the traced pass stays on it
	runs := map[string]*variantRun{}
	var order []*variantRun
	for _, v := range tracedVariants {
		vr := &variantRun{v: v}
		runs[v.name] = vr
		order = append(order, vr)
	}
	s.rounds(order, time.Duration(seconds*float64(time.Second)), minTracedRounds, maxSolveReps)

	ds := runs["ds"]
	p.setTiming("dmem.solve_ds_s", ds.times)
	p.setTiming("dmem.solve_ps_s", runs["ps"].times)
	p.setTiming("dmem.solve_bj_s", runs["bj"].times)
	p.setTiming("dmem.solve_ds_dense_s", runs["ds_dense"].times)
	p.setTiming("rma.solve_ds_mc_s", runs["ds_mc"].times)
	p.setTiming("rma.solve_ds_nbr_mc_s", runs["ds_nbr_mc"].times)
	dsS := p10(ds.times)
	p.set("dmem.active_speedup", p10(runs["ds_dense"].times)/dsS)
	p.set("rma.pool_speedup", dsS/p10(runs["ds_mc"].times))
	p.set("rma.nbr_over_barrier", p10(runs["ds_nbr_mc"].times)/p10(runs["ds_mc"].times))
	if refs := s.refs[core.DistSWD]; refs != nil {
		ref := refs[0]
		fin, st := ref.Final(), ref.Stats
		rankSteps := float64(w.Ranks * fin.Step)
		active := float64(activeRankSteps(ref))
		p.set("dmem.ns_per_rank_step", dsS*1e9/rankSteps)
		p.set("dmem.ns_per_relaxed_row", dsS*1e9/float64(fin.Relaxations))
		p.set("dmem.ns_per_msg", dsS*1e9/float64(st.TotalMsgs()))
		p.set("dmem.active_rank_steps", active)
		p.set("dmem.skipped_frac", 1-active/rankSteps)
		p.set("rma.msgs", float64(st.TotalMsgs()))
		p.set("rma.bytes", float64(st.SolveBytes+st.ResBytes))
		p.set("rma.res_msgs", float64(st.ResMsgs))
		p.set("rma.solve_msgs", float64(st.SolveMsgs))
		p.set("rma.phases", float64(st.Phases))
		p.set("rma.sim_time_s", st.SimTime)
		p.set("dmem.ds_final_resnorm", fin.ResNorm)
	}
	a := inst.a
	perNNZ := make([]float64, len(ds.oracleS))
	for i, t := range ds.oracleS {
		perNNZ[i] = t * 1e9 / float64(a.NNZ())
	}
	p.setTiming("sparse.resnorm_ns_per_nnz", perNNZ)
	// One pass over val (8 B) and col (8 B) per nonzero, and over rowptr, b,
	// x and r per row: computed from the sizes, not measured.
	p.set("sparse.resnorm_mb_computed", float64(16*a.NNZ()+32*a.N)/1e6)
	p.setTiming("sparse.verify_s", ds.verifyS)
	ob := runs["ds_obs"]
	p.set("obs.trace_overhead_frac", p10(ob.times)/dsS-1)
	p.set("obs.events", float64(ob.events))
	p.set("obs.dropped", float64(ob.dropped))
	p.setTiming("obs.export_s", ob.exportS)
	p.set("obs.export_mb", ob.exportMB)

	p.setTiming("rma.ns_per_msg_probe", probe.perMsg)
	p.setTiming("rma.ns_per_rank_phase_probe", probe.perRankPhase)

	p.setTiming("bench.ref_kernel_s", ds.refS)
	p.set("bench.cores", float64(mcWidth()))
	p.set("bench.reps_ds", float64(len(ds.times)))
	wall := time.Since(start).Seconds()
	p.set("bench.workload_wall_s", wall)
	p.set("bench.wall_s", time.Since(rec.origin).Seconds())
	p.finish(wall)
	return p, nil
}

func samePartition(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("partition lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d in part %d at width mc, %d at w1", i, got[i], want[i])
		}
	}
	return nil
}

// rmaProbeResult is ns per message and ns per rank-phase, one value per
// repetition.
type rmaProbeResult struct{ perMsg, perRankPhase []float64 }

// rmaProbe isolates rma from dmem: a 4096-rank world whose phase function
// Puts one 64-byte pointer payload to each of six fixed ring neighbours and
// reads its inbox, against the same number of phases with an empty
// function. It does not depend on the workload, so one measurement serves
// every workload of an invocation; its spans form a track of their own.
func rmaProbe(rec *spanRecorder) (res rmaProbeResult) {
	defer setWidth(runtime.GOMAXPROCS(0))
	setWidth(1)
	const workload, parent = "rma-probe", -1
	const p, fan = 4096, 6
	offsets := [fan]int{1, 2, 3, p - 1, p - 2, p - 3}
	payload := new([8]float64)
	run := func(name string, f func(w *rma.World) func(int)) float64 {
		w := rma.NewWorld(p, rma.DefaultCostModel())
		defer w.Close()
		fn := f(w)
		w.RunPhase(fn) // warm-up: staging buffers grow once
		runtime.GC()
		id := rec.begin(workload, name, parent)
		t0 := time.Now()
		for i := 0; i < probePhases; i++ {
			w.RunPhase(fn) //dslint:ignore phaseabsorb micro-probe: the empty function is the baseline the Put/Inbox function is read against, and no method state depends on the mail
		}
		dt := time.Since(t0)
		rec.count(id, "msgs", float64(w.Stats().TotalMsgs()))
		rec.end(id)
		return float64(dt.Nanoseconds())
	}
	sink := 0
	for i := 0; i < probeReps; i++ {
		empty := run("rma.probe.empty", func(*rma.World) func(int) { return func(int) {} })
		put := run("rma.probe.put", func(w *rma.World) func(int) {
			return func(rank int) {
				sink += len(w.Inbox(rank))
				for _, off := range offsets {
					w.Put(rank, (rank+off)%p, rma.TagSolve, 64, payload) //dslint:ignore clonerheld micro-probe on a perfect network: no fault plan is ever installed, and the payload is never written
				}
			}
		})
		res.perRankPhase = append(res.perRankPhase, empty/(probePhases*p))
		res.perMsg = append(res.perMsg, (put-empty)/(probePhases*p*fan))
	}
	if sink < 0 {
		panic("unreachable: keeps the inbox reads alive")
	}
	return res
}
