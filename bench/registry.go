package main

// The registry names everything the benchmark measures. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// TestRegistryMatchesBenchmarkJSON keeps the two in sync. Later issues
// refer to these workload and metric names verbatim.

// Clock labels: host metrics read the Go process's wall clock, CPU time or
// heap and carry the sandbox's noise; sim metrics read the tick clock or
// the hwsim device model and repeat exactly for a fixed seed.
const (
	clockHost = "host"
	clockSim  = "sim"
)

// metricSpec describes one named metric.
type metricSpec struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression (0 for per-layer
	// metrics, which are never gated).
	Bound float64
}

// endToEnd is what a user of the system would see, per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", clockHost, "lower", 0.25},
	{"wall_tok_s", "tok/s", clockHost, "higher", 0.25},
	{"density_speedup", "ratio", clockHost, "higher", 0.20},
	{"cpu_ms_per_ktok", "ms", clockHost, "lower", 0.25},
	{"alloc_mb_per_ktok", "MB", clockHost, "lower", 0.05},
	{"sim_tok_s", "tok/s", clockSim, "higher", 0.01},
	{"hit_rate", "ratio", clockSim, "higher", 0.03},
	{"ppl", "ppl", clockSim, "lower", 0.15},
	{"slo_attain", "ratio", clockSim, "higher", 0.01},
	{"turn_p99_ticks", "ticks", clockSim, "lower", 0.12},
	{"goodput_frac", "ratio", clockSim, "higher", 0.01},
}

// perLayer attributes cost to single modules. Traced pass only, never
// gated. Names are "<module>.<quantity>".
var perLayer = []metricSpec{
	{"host.copy_gb_s", "GB/s", clockHost, "higher", 0},
	{"host.matvec_gmac_s", "GMAC/s", clockHost, "higher", 0},
	{"host.peak_rss_mb", "MB", clockHost, "lower", 0},
	{"host.gc_cycles", "count", clockHost, "lower", 0},
	{"host.gc_pause_ms", "ms", clockHost, "lower", 0},
	{"host.trace_overhead_frac", "ratio", clockHost, "lower", 0},

	{"tensor.matvec_us", "us", clockHost, "lower", 0},
	{"tensor.mattvec_us", "us", clockHost, "lower", 0},
	{"tensor.matvec_sparse_us", "us", clockHost, "lower", 0},
	{"tensor.masked_cols_us", "us", clockHost, "lower", 0},
	{"tensor.topk_us", "us", clockHost, "lower", 0},
	{"tensor.matvec_batch8_us", "us", clockHost, "lower", 0},
	{"tensor.mattvec_batch8_us", "us", clockHost, "lower", 0},
	{"tensor.matvec_sparse_batch8_us", "us", clockHost, "lower", 0},
	{"tensor.masked_cols_batch8_us", "us", clockHost, "lower", 0},
	{"tensor.sparse_over_dense", "ratio", clockHost, "lower", 0},
	{"tensor.batch8_over_8x.matvec", "ratio", clockHost, "lower", 0},
	{"tensor.batch8_over_8x.mattvec", "ratio", clockHost, "lower", 0},
	{"tensor.batch8_over_8x.matvec_sparse", "ratio", clockHost, "lower", 0},
	{"tensor.batch8_over_8x.masked_cols", "ratio", clockHost, "lower", 0},
	{"tensor.matvec_gmac_s", "GMAC/s", clockHost, "higher", 0},
	{"tensor.matvec_sparse_gmac_s", "GMAC/s", clockHost, "higher", 0},
	{"tensor.batch_allocs_per_call", "count", clockHost, "lower", 0},

	{"sparsity.forward_us_p50", "us", clockHost, "lower", 0},
	{"sparsity.forward_us_p99", "us", clockHost, "lower", 0},
	{"sparsity.forward_share", "ratio", clockHost, "lower", 0},
	{"sparsity.density", "ratio", clockSim, "lower", 0},
	{"sparsity.forward_batch8_us", "us", clockHost, "lower", 0},

	{"cache.access_us_p50", "us", clockHost, "lower", 0},
	{"cache.access_us_p99", "us", clockHost, "lower", 0},
	{"cache.access_share", "ratio", clockHost, "lower", 0},
	{"cache.hits", "count", clockSim, "higher", 0},
	{"cache.misses", "count", clockSim, "lower", 0},
	{"cache.evictions", "count", clockSim, "lower", 0},

	{"hwsim.meter_share", "ratio", clockHost, "lower", 0},
	{"hwsim.new_plan_us", "us", clockHost, "lower", 0},
	{"hwsim.probe_groups_us", "us", clockHost, "lower", 0},
	{"hwsim.sim_ms_per_tok", "ms", clockSim, "lower", 0},

	{"model.step_self_us_p50", "us", clockHost, "lower", 0},
	{"model.step_self_share", "ratio", clockHost, "lower", 0},

	{"eval.step_ms_p50", "ms", clockHost, "lower", 0},
	{"eval.step_ms_p99", "ms", clockHost, "lower", 0},
	{"eval.new_stream_us", "us", clockHost, "lower", 0},
	{"eval.batch_step_ms_p50", "ms", clockHost, "lower", 0},

	{"serving.new_engine_ms", "ms", clockHost, "lower", 0},
	{"serving.tick_ms_p50", "ms", clockHost, "lower", 0},
	{"serving.tick_ms_p99", "ms", clockHost, "lower", 0},
	{"serving.tick_ms_shallow", "ms", clockHost, "lower", 0},
	{"serving.tick_ms_deep", "ms", clockHost, "lower", 0},
	{"serving.drain_report_ms", "ms", clockHost, "lower", 0},
	{"serving.ticks", "ticks", clockSim, "lower", 0},
	{"serving.batch_width_mean", "count", clockSim, "higher", 0},
	{"serving.queue_p99_ticks", "ticks", clockSim, "lower", 0},
	{"serving.shed", "count", clockSim, "lower", 0},
	{"serving.preemptions", "count", clockSim, "lower", 0},
	{"serving.allocs_per_session", "count", clockHost, "lower", 0},
	{"serving.alloc_kb_per_session", "KB", clockHost, "lower", 0},
	{"serving.heap_live_mb", "MB", clockHost, "lower", 0},

	{"obs.events", "count", clockSim, "lower", 0},
	{"obs.events_per_ktok", "count", clockSim, "lower", 0},
	{"obs.bytes_per_event", "B", clockSim, "lower", 0},
	{"obs.export_jsonl_ms", "ms", clockHost, "lower", 0},
	{"obs.export_chrome_ms", "ms", clockHost, "lower", 0},
	{"obs.overhead_frac", "ratio", clockHost, "lower", 0},

	{"faults.node_draw_ns", "ns", clockHost, "lower", 0},
	{"faults.crashes", "count", clockSim, "lower", 0},
	{"faults.rejoins", "count", clockSim, "higher", 0},

	{"cluster.new_ms", "ms", clockHost, "lower", 0},
	{"cluster.tick_ms_p50", "ms", clockHost, "lower", 0},
	{"cluster.tick_ms_p99", "ms", clockHost, "lower", 0},
	{"cluster.events_merge_ms", "ms", clockHost, "lower", 0},
	{"cluster.reconcile_ms", "ms", clockHost, "lower", 0},
	{"cluster.ticks", "ticks", clockSim, "lower", 0},
	{"cluster.migrations", "count", clockSim, "lower", 0},
	{"cluster.stranded", "count", clockSim, "lower", 0},
	{"cluster.detect_lag_ticks", "ticks", clockSim, "lower", 0},
	{"cluster.availability", "ratio", clockSim, "higher", 0},
	{"cluster.imbalance", "ratio", clockSim, "lower", 0},

	{"parallel.for_overhead_us", "us", clockHost, "lower", 0},
	{"parallel.speedup", "ratio", clockHost, "higher", 0},
}
