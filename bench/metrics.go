package main

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one of them, measured with tracing off; the terms
// are defined once for all five workloads:
//
//   - a call is what a user waits for: one full pipeline run (batch-*) or one
//     read request (serving);
//   - an op is the unit of useful work: an input point (batch-lshddp), an R
//     point (batch-knnjoin), a request (serving; reads for ops_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"rows_per_answer", "rows"},
	{"bytes_per_op", "bytes"},
	{"quality", "fraction"},
}

// bound is an end-to-end metric's regression rule, as BENCHMARK.json states
// it: the share of the reference median by which the metric may get worse.
type bound struct {
	higherIsBetter bool
	share          float64
}

var bounds = map[string]bound{
	"setup_s":         {false, 0.25},
	"peak_rss_mb":     {false, 0.25},
	"rows_per_answer": {false, 0.05},
	"bytes_per_op":    {false, 0.05},
	"quality":         {true, 0.01},
}

// timings are a workload's wall-clock and CPU figures, each the quiet end
// (see quiet) of its per-segment or per-rep values. On the reference box
// the same code's timings differ by 15-35 % between runs minutes apart (a
// co-tenant's load arrives and leaves in regimes that outlast a run), which
// no bound the benchmark may state can hold, so they are reported with the
// per-layer metrics, unbounded, and printed by every run; a timing claim is
// made with paired runs, which a drifting host does not fool.
type timings struct {
	opsPerS, p50MS, p99MS, cpuMS float64
	note                         string
}

// layer reports the timings as per-layer metrics (traced run).
func (t timings) layer(res *result) {
	res.set("bench.ops_per_s", "1/s", t.opsPerS)
	res.set("bench.lat_p50_ms", "ms", t.p50MS)
	res.set("bench.lat_p99_ms", "ms", t.p99MS)
	res.set("bench.cpu_ms_per_op", "ms", t.cpuMS)
	res.note("%s", t.note)
}

// print writes the timings as info lines (timed run).
func (t timings) print(res *result) {
	res.note("%s", t.note)
	res.note("ops_per_s=%.6g lat_p50_ms=%.6g lat_p99_ms=%.6g cpu_ms_per_op=%.6g (quiet end; unbounded, see bench/README.md)",
		t.opsPerS, t.p50MS, t.p99MS, t.cpuMS)
}

// perLayer lists the per-layer metrics, named <module>.<metric>. They come
// from the traced run; a workload that does not cross a layer reports 0 for
// that layer's metrics.
var perLayer = []metricDef{
	{"lsh.keys_ns_per_point", "ns"},
	{"lsh.partitions", "count"},
	{"lsh.max_partition_frac", "fraction"},

	{"points.decode_ns_per_point", "ns"},

	{"kernels.rho_ns_per_pair", "ns"},
	{"kernels.delta_ns_per_pair", "ns"},
	{"kernels.topk_ns_per_pair", "ns"},
	{"kernels.nn_ns_per_row.f64", "ns"},
	{"kernels.nn_ns_per_row.f32", "ns"},
	{"kernels.nn_ns_per_row.q8", "ns"},
	{"kernels.nnbatch_ns_per_row", "ns"},
	{"kernels.rerank_rows_per_query", "rows"},

	{"mapreduce.map_s", "s"},
	{"mapreduce.combine_s", "s"},
	{"mapreduce.sort_s", "s"},
	{"mapreduce.reduce_s", "s"},
	{"mapreduce.reduce_skew", "ratio"},
	{"mapreduce.map_records", "count"},
	{"mapreduce.shuffle_records", "count"},
	{"mapreduce.shuffle_bytes", "bytes"},

	{"rpcmr.fetch_s", "s"},
	{"rpcmr.fetch_bytes", "bytes"},
	{"rpcmr.wire_bytes", "bytes"},
	{"rpcmr.failed_maps", "count"},

	{"dag.nodes", "count"},
	{"dag.stage_bytes", "bytes"},
	{"dag.sched_overhead_s", "s"},

	{"core.dc_job_s", "s"},
	{"core.rho_job_s", "s"},
	{"core.rho_agg_job_s", "s"},
	{"core.delta_job_s", "s"},
	{"core.delta_agg_job_s", "s"},
	{"core.cluster_s", "s"},
	{"core.distance_computations", "count"},
	{"core.rho_tau2", "fraction"},

	{"knnjoin.candidates_job_s", "s"},
	{"knnjoin.merge_job_s", "s"},
	{"knnjoin.exact_job_s", "s"},
	{"knnjoin.candidates", "count"},
	{"knnjoin.fallbacks", "count"},
	{"knnjoin.certified_frac", "fraction"},

	{"model.build_s", "s"},
	{"model.bytes", "bytes"},
	{"model.decode_s", "s"},

	{"serve.engine_build_s", "s"},
	{"serve.probe_us", "us"},
	{"serve.candidates_per_query", "rows"},
	{"serve.candidate_frac", "fraction"},
	{"serve.engine_us", "us"},
	{"serve.engine_self_us", "us"},
	{"serve.exact_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.batch_size_mean", "points"},
	{"serve.busy_frac", "fraction"},
	{"serve.shed", "count"},
	{"serve.exact_scans", "count"},

	{"ingest.write_p50_ms", "ms"},
	{"ingest.write_p95_ms", "ms"},
	{"ingest.write_us_per_point", "us"},
	{"ingest.read_merge_overhead_us", "us"},
	{"ingest.wal_bytes_per_point", "bytes"},
	{"ingest.delta_scanned_per_query", "rows"},
	{"ingest.compact_s", "s"},
	{"ingest.compactions", "count"},
	{"ingest.read_p50_during_compact_ms", "ms"},

	{"fleet.partition_s", "s"},
	{"fleet.replication_factor", "ratio"},
	{"fleet.fanout_mean", "shards"},
	{"fleet.fanout_bound", "shards"},
	{"fleet.shard_requests_per_query", "count"},
	{"fleet.shard_busy_us_per_query", "us"},
	{"fleet.router_overhead_us", "us"},
	{"fleet.hedges", "count"},
	{"fleet.hedge_wins", "count"},
	{"fleet.retries", "count"},
	{"fleet.fallback_broadcasts", "count"},

	{"bench.ops_per_s", "1/s"},
	{"bench.lat_p50_ms", "ms"},
	{"bench.lat_p99_ms", "ms"},
	{"bench.cpu_ms_per_op", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.calib_compute_ms", "ms"},
	{"bench.calib_stream_ms", "ms"},
	{"bench.failed_frac", "fraction"},
}
