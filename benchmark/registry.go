package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// smoke test fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEndMetrics are what a user of skylined sees; every one is reported on
// every workload by the gated run (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_rps", "req/s", "higher", 0.20},
	{"query_p50_ms", "ms", "lower", 0.20},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerMetrics attribute time and work to single layers; the traced run
// (--trace 1) reports every one on every workload, 0 where the workload does
// not exercise the layer. Times are p50 unless the name says otherwise.
var perLayerMetrics = []metricDef{
	// edge (cmd/skylined): HTTP round trips split by the response's flags.
	{"edge.hit_p50_us", "us", "lower", 0},
	{"edge.semantic_p50_us", "us", "lower", 0},
	{"edge.engine_p50_us", "us", "lower", 0},
	{"edge.write_p50_us", "us", "lower", 0},
	{"edge.write_p99_us", "us", "lower", 0},
	{"edge.overhead_us", "us", "lower", 0},
	{"edge.resp_bytes", "B", "lower", 0},
	{"edge.parse_pref_us", "us", "lower", 0},
	{"edge.shed_share", "ratio", "lower", 0},
	// internal/order
	{"order.canonical_us", "us", "lower", 0},
	{"order.coarser_keys", "count", "lower", 0},
	// internal/service
	{"service.exact_hit_ratio", "ratio", "higher", 0},
	{"service.semantic_hit_ratio", "ratio", "higher", 0},
	{"service.exact_us", "us", "lower", 0},
	{"service.semantic_us", "us", "lower", 0},
	{"service.engine_us", "us", "lower", 0},
	{"service.cache_get_us", "us", "lower", 0},
	{"service.invalidations", "count", "lower", 0},
	{"service.shed", "count", "lower", 0},
	// internal/flat, read side
	{"flat.project_us", "us", "lower", 0},
	{"flat.presort_us", "us", "lower", 0},
	{"flat.scan_us", "us", "lower", 0},
	{"flat.candidates_us", "us", "lower", 0},
	{"flat.batch_member_us", "us", "lower", 0},
	{"flat.skyline_rows", "count", "lower", 0},
	{"flat.rows_pruned_ratio", "ratio", "higher", 0},
	{"flat.block_mb", "MB", "lower", 0},
	// internal/flat, write side
	{"flat.insert_us", "us", "lower", 0},
	{"flat.delete_us", "us", "lower", 0},
	{"flat.compact_ms", "ms", "lower", 0},
	{"flat.compactions", "count", "lower", 0},
	{"flat.delta_rows_peak", "count", "lower", 0},
	// internal/parallel
	{"parallel.skyline_us", "us", "lower", 0},
	{"parallel.merge_us", "us", "lower", 0},
	{"parallel.merge_survival_ratio", "ratio", "higher", 0},
	// internal/ipotree
	{"ipotree.build_s", "s", "lower", 0},
	{"ipotree.size_kb", "KB", "lower", 0},
	{"ipotree.query_us", "us", "lower", 0},
	{"ipotree.hit_ratio", "ratio", "higher", 0},
	// internal/adaptive
	{"adaptive.build_s", "s", "lower", 0},
	{"adaptive.query_us", "us", "lower", 0},
	{"adaptive.affected_rows", "count", "lower", 0},
	{"adaptive.size_kb", "KB", "lower", 0},
	// internal/durable
	{"durable.append_us", "us", "lower", 0},
	{"durable.sync_us", "us", "lower", 0},
	{"durable.checkpoint_ms", "ms", "lower", 0},
	{"durable.recovery_s", "s", "lower", 0},
	{"durable.wal_bytes_per_row", "B", "lower", 0},
	{"durable.wal_syncs", "count", "lower", 0},
	// internal/cluster
	{"cluster.split_ms", "ms", "lower", 0},
	{"cluster.push_s", "s", "lower", 0},
	{"cluster.shard_p50_us", "us", "lower", 0},
	{"cluster.partial_rows", "count", "lower", 0},
	{"cluster.wire_bytes", "B", "lower", 0},
	{"cluster.hedges", "count", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	// internal/data
	{"data.read_csv_s", "s", "lower", 0},
	// process and generator: validity of the run, not a target
	{"proc.cpu_ms_per_req", "ms", "lower", 0},
	{"gen.sched_lag_p99_ms", "ms", "lower", 0},
	{"gen.achieved_rate_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
}

// runSeconds is the measured time of one gated run (BENCHMARK.json
// run_seconds): a third closed-loop, two thirds open-loop.
const runSeconds = 24

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
