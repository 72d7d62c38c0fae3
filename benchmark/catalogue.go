package main

// metricDef is one entry of BENCHMARK.json's metric lists. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, measured with every probe
// off. Each bound is about three times the spread (interquartile range over
// median, ten seeds) that metric typically shows on its noisiest workload on
// the two-core reference container, and above the widest spread seen in
// six such sets; the README's baseline section has the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"epoch_ms", "ms", lower, 0.25},
	{"wire_mb_per_epoch", "MB", lower, 0.15},
	{"test_acc", "fraction", higher, 0.03},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"serve_p50_ms", "ms", lower, 0.15},
	{"serve_p99_ms", "ms", lower, 0.25},
}

// perLayer is the budget: one group per module that does work in these
// workloads, read off the traced run. The name's prefix is the module.
var perLayer = []metricDef{
	{Name: "datasets.generate_ms", Unit: "ms", Better: lower},

	{Name: "partition.partition_ms", Unit: "ms", Better: lower},
	{Name: "partition.cut_frac", Unit: "fraction", Better: lower},
	{Name: "partition.ghost_rows", Unit: "count", Better: lower},

	{Name: "core.preprocess_s", Unit: "s", Better: lower},
	{Name: "core.eval_ms", Unit: "ms", Better: lower},
	{Name: "core.raw_compute_ms", Unit: "ms", Better: lower},
	{Name: "core.sim_epoch_ms", Unit: "ms", Better: lower},
	{Name: "core.steady_epoch_ms", Unit: "ms", Better: lower},
	{Name: "core.sync_epoch_ms", Unit: "ms", Better: lower},
	{Name: "core.epoch_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.epoch_p90_ms", Unit: "ms", Better: lower},
	{Name: "core.epochs_to_target", Unit: "count", Better: lower},
	{Name: "core.time_to_target_s", Unit: "s", Better: lower},
	{Name: "core.alloc_mb_per_epoch", Unit: "MB", Better: lower},
	{Name: "core.gc_pause_ms_per_epoch", Unit: "ms", Better: lower},

	{Name: "worker.topology_ms", Unit: "ms", Better: lower},
	{Name: "worker.ghost_features_ms", Unit: "ms", Better: lower},
	{Name: "worker.fp_owned_ms", Unit: "ms", Better: lower},
	{Name: "worker.fp_collect_wait_ms", Unit: "ms", Better: lower},
	{Name: "worker.fp_fold_ms", Unit: "ms", Better: lower},
	{Name: "worker.bp_owned_ms", Unit: "ms", Better: lower},
	{Name: "worker.bp_collect_wait_ms", Unit: "ms", Better: lower},
	{Name: "worker.bp_fold_ms", Unit: "ms", Better: lower},
	{Name: "worker.other_ms", Unit: "ms", Better: lower},
	{Name: "worker.getH_serve_ms", Unit: "ms", Better: lower},
	{Name: "worker.getG_serve_ms", Unit: "ms", Better: lower},
	{Name: "worker.degraded_fetches", Unit: "count", Better: lower},

	{Name: "transport.calls_per_epoch", Unit: "count", Better: lower},
	{Name: "transport.getH_mb", Unit: "MB", Better: lower},
	{Name: "transport.getG_mb", Unit: "MB", Better: lower},
	{Name: "transport.ps_mb", Unit: "MB", Better: lower},
	{Name: "transport.link_serialize_ms", Unit: "ms", Better: lower},
	{Name: "transport.link_rtt_ms", Unit: "ms", Better: lower},
	{Name: "transport.link_queue_ms", Unit: "ms", Better: lower},
	{Name: "transport.sim_comm_ms", Unit: "ms", Better: lower},
	{Name: "transport.retries", Unit: "count", Better: lower},

	{Name: "ec.fp_respond_us_per_krow", Unit: "us", Better: lower},
	{Name: "ec.fp_parse_us_per_krow", Unit: "us", Better: lower},
	{Name: "ec.bp_respond_us_per_krow", Unit: "us", Better: lower},
	{Name: "ec.predicted_frac", Unit: "fraction", Better: higher},
	{Name: "ec.fp_bits_mean", Unit: "bits", Better: lower},

	{Name: "compress.quantize_mb_s", Unit: "MB/s", Better: higher},
	{Name: "compress.dequant_mb_s", Unit: "MB/s", Better: higher},
	{Name: "compress.block_accum_ns_per_row", Unit: "ns", Better: lower},
	{Name: "compress.wire_ratio", Unit: "ratio", Better: higher},

	{Name: "graph.spmm_owned_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "graph.spmm_ghost_packed_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "graph.spmm_ghost_dense_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "graph.fold_allocs_per_op", Unit: "count", Better: lower},

	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "tensor.tmatmul_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "tensor.matmult_gflops", Unit: "GFLOP/s", Better: higher},

	{Name: "nn.fullgraph_epoch_ms", Unit: "ms", Better: lower},
	{Name: "nn.fullgraph_test_acc", Unit: "fraction", Better: higher},

	{Name: "ps.pull_ms", Unit: "ms", Better: lower},
	{Name: "ps.push_ms", Unit: "ms", Better: lower},
	{Name: "ps.push_serve_ms", Unit: "ms", Better: lower},
	{Name: "ps.barrier_skew_ms", Unit: "ms", Better: lower},
	{Name: "ps.param_kb", Unit: "KB", Better: lower},

	{Name: "serve.precompute_ms", Unit: "ms", Better: lower},
	{Name: "serve.swap_ms", Unit: "ms", Better: lower},
	{Name: "serve.post_swap_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.p99_ms_r250", Unit: "ms", Better: lower},
	{Name: "serve.p99_ms_r2000", Unit: "ms", Better: lower},
	{Name: "serve.slo_rate_rps", Unit: "req/s", Better: higher},
	{Name: "serve.batch_size_mean", Unit: "count", Better: higher},
	{Name: "serve.shard_call_ms", Unit: "ms", Better: lower},
	{Name: "serve.ghost_fetch_rows_per_req", Unit: "count", Better: lower},
	{Name: "serve.cache_entries", Unit: "count", Better: lower},
	{Name: "serve.rejected_frac", Unit: "fraction", Better: lower},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.bulk_vps", Unit: "vertices/s", Better: higher},
	{Name: "serve.bulk_batch_ms", Unit: "ms", Better: lower},

	{Name: "trace.overhead_frac", Unit: "fraction", Better: lower},
	{Name: "trace.budget_gap_frac", Unit: "fraction", Better: lower},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// theManifest builds BENCHMARK.json from the catalogue and the workload
// table, so that neither can drift from what the program emits.
func theManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadInfo{w.Name, w.Why})
	}
	return m
}

// defsFor returns the metrics a run of the given kind must report.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
