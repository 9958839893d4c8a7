package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; the self-test keeps the two
// in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen by
	// exact marks a simulated metric that does not depend on the seed: it
	// repeats bit for bit from run to run.
	exact bool
}

// notApplicable is what a workload reports for an end-to-end metric it
// does not define (a speed-up on the open loop, a transaction latency on a
// batch). Every run prints every end-to-end metric, none may be 0, and a
// constant 1 never moves.
const notApplicable = 1

// Every bound is at least about three times the widest spread in AA.md,
// or the 0.25 the pipeline allows at most. Simulated metrics repeat exactly
// except on oltp-open, whose inputs follow the seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"simops_per_s", "1/s", "higher", 0.25, false},
	{"host_peak_mb", "MB", "lower", 0.20, false},
	{"sim_cycles", "cycles", "lower", 0.01, true},
	{"sim_speedup", "ratio", "higher", 0.01, true},
	{"check_overhead", "ratio", "lower", 0.01, true},
	{"txn_p50_cycles", "cycles", "lower", 0.25, false},
	{"txn_p99_cycles", "cycles", "lower", 0.25, false},
	{"txn_p50_cycles_t4", "cycles", "lower", 0.25, false},
	{"txn_capacity", "txn/Mcycle", "higher", 0.10, false},
	{"tenants_in_slo", "tenants", "higher", 0.20, false},
}

// perLayer metrics have no bound. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = []metricDef{
	{name: "core.read_misses", unit: "count", better: "lower"},
	{name: "core.write_misses", unit: "count", better: "lower"},
	{name: "core.local_fills", unit: "count", better: "lower"},
	{name: "core.false_misses", unit: "count", better: "lower"},
	{name: "core.messages_handled", unit: "count", better: "lower"},
	{name: "core.invalidations", unit: "count", better: "lower"},
	{name: "core.downgrades", unit: "count", better: "lower"},
	{name: "core.miss_rate", unit: "ratio", better: "lower"},
	{name: "core.msgs_per_miss", unit: "ratio", better: "lower"},
	{name: "core.read_stall_per_miss_cycles", unit: "cycles", better: "lower"},
	{name: "core.write_stall_cycles", unit: "cycles", better: "lower"},
	{name: "core.sc_failures", unit: "count", better: "lower"},
	{name: "core.retransmits", unit: "count", better: "lower"},
	{name: "core.task_frac", unit: "ratio", better: "higher"},
	{name: "core.check_frac", unit: "ratio", better: "lower"},
	{name: "core.poll_frac", unit: "ratio", better: "lower"},
	{name: "core.read_frac", unit: "ratio", better: "lower"},
	{name: "core.write_frac", unit: "ratio", better: "lower"},
	{name: "core.sync_frac", unit: "ratio", better: "lower"},
	{name: "core.message_frac", unit: "ratio", better: "lower"},
	{name: "core.build_s", unit: "s", better: "lower"},
	{name: "core.build_alloc_mb", unit: "MB", better: "lower"},
	{name: "core.builds_per_rep", unit: "count", better: "lower"},

	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.ns_per_simop", unit: "ns", better: "lower"},
	{name: "sim.ns_per_sim_kcycle", unit: "ns", better: "lower"},
	{name: "sim.context_switches", unit: "count", better: "lower"},
	{name: "sim.rep_s_median", unit: "s", better: "lower"},
	{name: "sim.rep_s_iqr", unit: "s", better: "lower"},
	{name: "sim.reps", unit: "count", better: "higher"},
	{name: "sim.sched_switch_events", unit: "count", better: "lower"},
	{name: "sim.sched_preempt_events", unit: "count", better: "lower"},

	{name: "parallel.run_s_w1", unit: "s", better: "lower"},
	{name: "parallel.run_s_wn", unit: "s", better: "lower"},
	{name: "parallel.vs_seq", unit: "ratio", better: "higher"},
	{name: "parallel.scaling", unit: "ratio", better: "higher"},
	{name: "parallel.parity", unit: "count", better: "higher"},

	{name: "memchannel.messages", unit: "count", better: "lower"},
	{name: "memchannel.bytes", unit: "bytes", better: "lower"},
	{name: "memchannel.intra_messages", unit: "count", better: "lower"},
	{name: "memchannel.bytes_per_message", unit: "bytes", better: "lower"},

	{name: "dsmsync.lock_acquires", unit: "count", better: "lower"},
	{name: "dsmsync.barrier_waits", unit: "count", better: "lower"},
	{name: "dsmsync.sync_stall_per_op_cycles", unit: "cycles", better: "lower"},
	{name: "dsmsync.msgs_per_sync_op", unit: "ratio", better: "lower"},

	{name: "rewriter.rewrite_s", unit: "s", better: "lower"},
	{name: "rewriter.checks_inserted", unit: "count", better: "lower"},
	{name: "rewriter.checks_eliminated", unit: "count", better: "higher"},
	{name: "rewriter.hoisted_checks", unit: "count", better: "higher"},
	{name: "rewriter.dyn_checks", unit: "count", better: "lower"},
	{name: "rewriter.check_cycles_frac", unit: "ratio", better: "lower"},
	{name: "isa.assemble_s", unit: "s", better: "lower"},
	{name: "isa.asm_run_s", unit: "s", better: "lower"},

	{name: "load.offered", unit: "count", better: "higher"},
	{name: "load.admitted", unit: "count", better: "higher"},
	{name: "load.shed", unit: "count", better: "lower"},
	{name: "load.queue_cycles_mean", unit: "cycles", better: "lower"},
	{name: "load.backlog_growth", unit: "ratio", better: "lower"},
	{name: "load.worker_imbalance", unit: "ratio", better: "lower"},
	{name: "load.schedule_s", unit: "s", better: "lower"},
	{name: "load.txn_p50_cycles_t4", unit: "cycles", better: "lower"},
	{name: "load.txn_p50_cycles_t8", unit: "cycles", better: "lower"},
	{name: "load.txn_p50_cycles_t12", unit: "cycles", better: "lower"},
	{name: "load.txn_p50_cycles_t16", unit: "cycles", better: "lower"},
	{name: "load.txn_p99_cycles_t4", unit: "cycles", better: "lower"},
	{name: "load.txn_p99_cycles_t8", unit: "cycles", better: "lower"},
	{name: "load.txn_p99_cycles_t12", unit: "cycles", better: "lower"},
	{name: "load.txn_p99_cycles_t16", unit: "cycles", better: "lower"},
	{name: "load.slo_attainment_t4", unit: "ratio", better: "higher"},
	{name: "load.slo_attainment_t8", unit: "ratio", better: "higher"},
	{name: "load.slo_attainment_t12", unit: "ratio", better: "higher"},
	{name: "load.slo_attainment_t16", unit: "ratio", better: "higher"},
	{name: "load.queue_frac_t4", unit: "ratio", better: "lower"},
	{name: "load.queue_frac_t8", unit: "ratio", better: "lower"},
	{name: "load.queue_frac_t12", unit: "ratio", better: "lower"},
	{name: "load.queue_frac_t16", unit: "ratio", better: "lower"},
	{name: "load.txn_per_mcycle_t4", unit: "txn/Mcycle", better: "higher"},
	{name: "load.txn_per_mcycle_t8", unit: "txn/Mcycle", better: "higher"},
	{name: "load.txn_per_mcycle_t12", unit: "txn/Mcycle", better: "higher"},
	{name: "load.txn_per_mcycle_t16", unit: "txn/Mcycle", better: "higher"},
	{name: "oracledb.db_cycles_mean", unit: "cycles", better: "lower"},
	{name: "oracledb.prot_cycles_mean", unit: "cycles", better: "lower"},
	{name: "oracledb.sync_cycles_mean", unit: "cycles", better: "lower"},

	{name: "trace.events", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.analyze_s", unit: "s", better: "lower"},
	{name: "trace.msg_handle_delay_mean_cycles", unit: "cycles", better: "lower"},
	{name: "trace.analyzer_match", unit: "count", better: "higher"},

	{name: "go.mallocs_per_simop", unit: "ratio", better: "lower"},
	{name: "go.alloc_bytes_per_simop", unit: "bytes", better: "lower"},
	{name: "go.gc_cycles_per_rep", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_per_rep", unit: "ms", better: "lower"},

	{name: "workloads.barnes.sim_cycles", unit: "cycles", better: "lower"},
	{name: "workloads.ocean.sim_cycles", unit: "cycles", better: "lower"},
	{name: "workloads.raytrace.sim_cycles", unit: "cycles", better: "lower"},
	{name: "workloads.water-nsq.sim_cycles", unit: "cycles", better: "lower"},

	{name: "host.calib_spin_s", unit: "s", better: "lower"},
	{name: "host.calib_memscan_s", unit: "s", better: "lower"},
}
