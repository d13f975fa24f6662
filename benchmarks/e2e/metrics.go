package main

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatchesTables keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Stat   string  // how the value is taken: p10, median, exact, derived
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd is what a user of the solver sees, reported by the untraced
// pass on every workload. Bounds were calibrated from ten-seed sets on the
// 2-vCPU box (README, "Bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Stat: "median"},
	{Name: "solve_ds_s", Unit: "s", Better: "lower", Bound: 0.25, Stat: "median"},
	{Name: "ds_sim_s_to_target", Unit: "sim_s", Better: "lower", Bound: 0.15, Stat: "exact"},
	{Name: "ds_msgs_to_target", Unit: "msgs", Better: "lower", Bound: 0.10, Stat: "exact"},
	{Name: "ds_steps_to_target", Unit: "steps", Better: "lower", Bound: 0.20, Stat: "exact"},
	{Name: "ds_conv_factor", Unit: "ratio", Better: "lower", Bound: 0.05, Stat: "exact"},
	{Name: "setup_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Stat: "median"},
	{Name: "solve_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, Stat: "median"},
}

// perLayer is reported by the traced pass, module name first. No bounds:
// these explain a move of an end-to-end metric, they never gate.
var perLayer = []metricDef{
	{Name: "problem.generate_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "setup_s, all workloads (<=10% share: predicted invisible)"},
	{Name: "sparse.scale_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "setup_s, all workloads (predicted invisible)"},
	{Name: "partition.partition_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "setup_s on pointload2k (~85%) and suite256 (~80%)"},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower", Stat: "exact", Moves: "ds_msgs_to_target, all workloads"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower", Stat: "exact", Moves: "solve_ds_s via the slowest rank; ds_sim_s_to_target"},
	{Name: "partition.max_part", Unit: "count", Better: "lower", Stat: "exact", Moves: "ds_sim_s_to_target"},
	{Name: "dmem.layout_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "setup_s on wide4k"},
	{Name: "dmem.layout_heap_mb", Unit: "MB", Better: "lower", Stat: "exact", Moves: "setup_heap_mb"},
	{Name: "dmem.factor_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "setup_s on direct64 only (~0 elsewhere)"},
	{Name: "dmem.solve_ds_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "solve_ds_s"},
	{Name: "dmem.solve_ps_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none gated; the PS baseline DS is read against"},
	{Name: "dmem.solve_bj_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none gated; the BJ baseline DS is read against"},
	{Name: "dmem.ns_per_rank_step", Unit: "ns", Better: "lower", Stat: "derived", Moves: "solve_ds_s on wide4k"},
	{Name: "dmem.ns_per_relaxed_row", Unit: "ns", Better: "lower", Stat: "derived", Moves: "solve_ds_s on suite256"},
	{Name: "dmem.ns_per_msg", Unit: "ns", Better: "lower", Stat: "derived", Moves: "solve_ds_s on wide4k"},
	{Name: "dmem.solve_ds_dense_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "solve_ds_s on pointload2k (what the active set saves)"},
	{Name: "dmem.active_rank_steps", Unit: "count", Better: "lower", Stat: "exact", Moves: "solve_ds_s on pointload2k"},
	{Name: "dmem.skipped_frac", Unit: "ratio", Better: "higher", Stat: "exact", Moves: "solve_ds_s on pointload2k"},
	{Name: "dmem.active_speedup", Unit: "ratio", Better: "higher", Stat: "derived", Moves: "solve_ds_s on pointload2k; predicted ~1.0 on suite256 and wide4k"},
	{Name: "dmem.ds_final_resnorm", Unit: "l2norm", Better: "lower", Stat: "exact", Moves: "ds_conv_factor (first draw only; erratic from draw to draw)"},
	{Name: "rma.msgs", Unit: "msgs", Better: "lower", Stat: "exact", Moves: "ds_msgs_to_target"},
	{Name: "rma.bytes", Unit: "bytes", Better: "lower", Stat: "exact", Moves: "ds_sim_s_to_target"},
	{Name: "rma.res_msgs", Unit: "msgs", Better: "lower", Stat: "exact", Moves: "ds_msgs_to_target"},
	{Name: "rma.solve_msgs", Unit: "msgs", Better: "lower", Stat: "exact", Moves: "ds_msgs_to_target"},
	{Name: "rma.phases", Unit: "count", Better: "lower", Stat: "exact", Moves: "ds_sim_s_to_target"},
	{Name: "rma.sim_time_s", Unit: "sim_s", Better: "lower", Stat: "exact", Moves: "ds_sim_s_to_target"},
	{Name: "rma.ns_per_msg_probe", Unit: "ns", Better: "lower", Stat: "p10", Moves: "solve_ds_s on wide4k (rma alone, no dmem)"},
	{Name: "rma.ns_per_rank_phase_probe", Unit: "ns", Better: "lower", Stat: "p10", Moves: "solve_ds_s on wide4k (rma alone, no dmem)"},
	{Name: "rma.solve_ds_mc_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none gated: too noisy at >1 core on a shared host (README)"},
	{Name: "rma.solve_ds_nbr_mc_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none gated; evidence for ROADMAP items 2b/3 on wide4k"},
	{Name: "rma.pool_speedup", Unit: "ratio", Better: "higher", Stat: "derived", Moves: "none gated; w1 sequential over mc pool engine"},
	{Name: "rma.nbr_over_barrier", Unit: "ratio", Better: "lower", Stat: "derived", Moves: "none gated; neighbor over barrier scheduler at mc"},
	{Name: "parallel.setup_mc_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none gated; set-up with the kernel pool at mc"},
	{Name: "parallel.setup_speedup", Unit: "ratio", Better: "higher", Stat: "derived", Moves: "none gated; w1 set-up over mc set-up (ROADMAP item 2a)"},
	{Name: "sparse.resnorm_ns_per_nnz", Unit: "ns", Better: "lower", Stat: "p10", Moves: "none (cost of the correctness oracle only)"},
	{Name: "sparse.resnorm_mb_computed", Unit: "MB", Better: "lower", Stat: "exact", Moves: "none; bytes computed from n and nnz, not measured"},
	{Name: "sparse.verify_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none (cost of the correctness oracle only)"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Stat: "derived", Moves: "none: end-to-end runs have tracing off"},
	{Name: "obs.events", Unit: "count", Better: "lower", Stat: "exact", Moves: "obs.export_s"},
	{Name: "obs.dropped", Unit: "count", Better: "lower", Stat: "exact", Moves: "none (ring capacity is the harness's choice)"},
	{Name: "obs.export_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "none"},
	{Name: "obs.export_mb", Unit: "MB", Better: "lower", Stat: "exact", Moves: "none"},
	{Name: "bench.ref_kernel_s", Unit: "s", Better: "lower", Stat: "p10", Moves: "the host's state: every end-to-end time is normalised by it"},
	{Name: "bench.cores", Unit: "count", Better: "higher", Stat: "exact", Moves: "width of every mc number"},
	{Name: "bench.reps_ds", Unit: "count", Better: "higher", Stat: "exact", Moves: "sample size behind dmem.solve_ds_s"},
	{Name: "bench.workload_wall_s", Unit: "s", Better: "lower", Stat: "exact", Moves: "the time budget"},
	{Name: "bench.wall_s", Unit: "s", Better: "lower", Stat: "exact", Moves: "the time budget"},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
