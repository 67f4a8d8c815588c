package main

// metricDef names one metric of the benchmark. The catalogue below is
// the single list that the run output, the A/A check, bench/README.md
// and BENCHMARK.json agree on; a test compares BENCHMARK.json with it.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Workload names, in the order "-workload all" runs them.
var workloadNames = []string{"annotate-batch", "feed-wire", "query-wire", "fleet-router"}

var workloadWhy = map[string]string{
	"annotate-batch": "In-process library calls on ~500-record sequences: inference is ~95 % of the time; bypasses JSON, HTTP, msserve and msrouter.",
	"feed-wire":      "Two closed-loop writers saturate one msserve with completing feeds: decode, segmentation, inference on short fragments, store add, publish, SSE frame; then queries on the large store.",
	"query-wire":     "Two closed-loop query clients on a preloaded msserve beside a scheduled trickle of feeds: HTTP, JSON, generation-keyed cache and index with inference nearly idle.",
	"fleet-router":   "The same mixed trip through msrouter over two msserve: proxy hop, scatter-gather, partial cache and watch relay; the only workload where internal/router works.",
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, each through the layers that workload
// exercises.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.10},
	{"seq_latency_p50_ms", "ms", "lower", 0.10},
	{"label_accuracy", "ratio", "higher", 0.01},
	{"feed_p50_ms", "ms", "lower", 0.25},
	{"watch_lag_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.10},
	{"query_p50_ms", "ms", "lower", 0.20},
	{"query_miss_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers, taken in a traced run.
var perLayer = []metricDef{
	{"core.sweep_us_per_record", "us", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	{"features.reset_us_per_record", "us", "lower", 0},
	{"indoor.candidates_ns_per_record", "ns", "lower", 0},
	{"indoor.candidates_per_record", "count", "lower", 0},
	{"indoor.cache_build_ms", "ms", "lower", 0},
	{"seq.segment_ns_per_record", "ns", "lower", 0},
	{"seq.merge_ns_per_record", "ns", "lower", 0},
	{"query.add_us_per_seq", "us", "lower", 0},
	{"query.tkprq_us", "us", "lower", 0},
	{"query.tkfrpq_us", "us", "lower", 0},
	{"query.stored_seqs", "count", "lower", 0},
	{"c2mn.annotate_us_per_record", "us", "lower", 0},
	{"c2mn.annotate_allocs_per_seq", "count", "lower", 0},
	{"c2mn.pool_scaling", "ratio", "higher", 0},
	{"c2mn.feedall_us_per_record", "us", "lower", 0},
	{"c2mn.query_hit_us", "us", "lower", 0},
	{"c2mn.query_miss_us", "us", "lower", 0},
	{"c2mn.query_cache_hit_ratio", "ratio", "higher", 0},
	{"c2mn.coalesced_batch_mean", "count", "higher", 0},
	{"notify.publish_ns", "ns", "lower", 0},
	{"notify.diff_us", "us", "lower", 0},
	{"notify.frames_per_bump", "ratio", "higher", 0},
	{"notify.resyncs", "count", "lower", 0},
	{"notify.watch_lag_p90_ms", "ms", "lower", 0},
	{"msserve.feed_overhead_us", "us", "lower", 0},
	{"msserve.query_overhead_us", "us", "lower", 0},
	{"msserve.not_modified_share", "ratio", "higher", 0},
	{"msserve.throttled_share", "ratio", "lower", 0},
	{"msserve.cpu_us_per_record", "us", "lower", 0},
	{"msserve.cpu_us_per_query", "us", "lower", 0},
	{"msserve.peak_rss_mb", "MiB", "lower", 0},
	{"msserve.boot_ms", "ms", "lower", 0},
	{"router.hop_overhead_us", "us", "lower", 0},
	{"router.scatter_p50_ms", "ms", "lower", 0},
	{"router.scatter_cache_hit_ratio", "ratio", "higher", 0},
	{"router.rendezvous_ns", "ns", "lower", 0},
	{"router.watch_relay_ms", "ms", "lower", 0},
	{"msrouter.cpu_s", "s", "lower", 0},
	{"msrouter.peak_rss_mb", "MiB", "lower", 0},
	{"client.cpu_share", "ratio", "lower", 0},
	{"client.send_lateness_p99_ms", "ms", "lower", 0},
	{"client.feed_p99_ms", "ms", "lower", 0},
	{"client.query_p99_ms", "ms", "lower", 0},
	{"client.error_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.shadow_coverage", "ratio", "higher", 0},
	{"bench.prepare_s", "s", "lower", 0},
}
