package main

// MetricDef is one metric of BENCHMARK.json.
type MetricDef struct {
	Name, Unit, Better string
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move.
	Moves string
}

// endToEnd lists the metrics every untraced run prints. Each workload
// times two request classes; primary and secondary name them:
//
//	ingest  primary = /load (load_ms_*),          secondary = verification /query with paths
//	query   primary = /query distances (query_ms_*), secondary = /query with paths (path_ms_*)
//	churn   primary = /reweight (reweight_ms_*),  secondary = /query (query_ms_*)
//	fleet   primary = /reweight via the router,   secondary = /query via the router
//
// The report line also prints each class under its own name, with its
// sample count and every percentile the samples support.
var endToEndMetrics = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ok_frac", Unit: "ratio", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "words_per_solve", Unit: "words", Better: "lower"},
	{Name: "primary_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "primary_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "primary_per_s", Unit: "1/s", Better: "higher"},
	{Name: "secondary_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "secondary_ms_p90", Unit: "ms", Better: "lower"},
}

// perLayer lists the metrics every traced run prints.
var perLayer = []MetricDef{
	{"partition.layout_ms", "ms", "lower", "ingest primary_ms_p50 and primary_per_s (load)"},
	{"partition.sep_size", "vertices", "lower", "ingest primary_ms_p50 and words_per_solve"},
	{"apsp.plan_ms", "ms", "lower", "ingest primary_ms_p50 (load)"},
	{"apsp.plan_ops", "count", "lower", "ingest primary_ms_p50 (load)"},
	{"apsp.lower_ms", "ms", "lower", "ingest primary_ms_p50 (load)"},
	{"apsp.sched_nodes", "count", "lower", "ingest primary_ms_p50 (load)"},
	{"apsp.plan_hit_frac", "ratio", "higher", "churn primary_per_s (warm re-solves); 0 on ingest"},
	{"apsp.exec_ms", "ms", "lower", "ingest primary_ms_p50; churn primary_per_s (fallbacks)"},
	{"comm.crit_words", "words", "lower", "words_per_solve on ingest and churn"},
	{"comm.crit_msgs", "count", "lower", "words_per_solve on ingest; apsp.exec_ms"},
	{"comm.total_words", "words", "lower", "words_per_solve on ingest and churn"},
	{"comm.words.r2", "words", "lower", "words_per_solve on ingest"},
	{"comm.words.r3", "words", "lower", "words_per_solve on ingest"},
	{"comm.words.r4-panel", "words", "lower", "words_per_solve on ingest"},
	{"comm.words.r4-reduce", "words", "lower", "words_per_solve on ingest"},
	{"comm.words.r4-seq", "words", "lower", "words_per_solve on ingest"},
	{"comm.words.trans", "words", "lower", "words_per_solve on ingest"},
	{"comm.max_mem_words", "words", "lower", "ingest peak_rss_mb"},
	{"semiring.flops", "count", "lower", "apsp.exec_ms; ingest primary_ms_p50"},
	{"semiring.flops_per_word", "ratio", "higher", "words_per_solve; apsp.exec_ms"},
	{"apsp.succ_ms", "ms", "lower", "ingest primary_ms_p50 (largest share); churn secondary_ms_p90 (promotions)"},
	{"apsp.succ_bytes_per_pair", "B", "lower", "query and churn peak_rss_mb"},
	{"apsp.repair_ms", "ms", "lower", "churn and fleet primary_ms_p50/p90 (reweight)"},
	{"apsp.repair_reset_pairs", "count", "lower", "churn primary_ms_p50/p90 (reweight)"},
	{"apsp.repair_fallback_frac", "ratio", "lower", "churn primary_per_s (reweight)"},
	{"oracle.batch_dist_us_per_pair", "us", "lower", "query primary_ms_p50 (query_ms_p50)"},
	{"oracle.batch_path_us_per_pair", "us", "lower", "query secondary_ms_p50 (path_ms_p50)"},
	{"oracle.compress_ms", "ms", "lower", "churn secondary_ms_p90 (demotion during promotion)"},
	{"oracle.decompress_ms", "ms", "lower", "churn secondary_ms_p90 (promotions)"},
	{"oracle.promote_ms", "ms", "lower", "churn secondary_ms_p90 (promotions)"},
	{"oracle.compressed_bytes_per_pair", "B", "lower", "churn peak_rss_mb"},
	{"oracle.hit_frac", "ratio", "higher", "churn secondary_ms_p50"},
	{"oracle.demotions", "count", "lower", "churn secondary_ms_p90 and peak_rss_mb"},
	{"oracle.promotions", "count", "lower", "churn secondary_ms_p90"},
	{"server.parse_ms", "ms", "lower", "ingest primary_ms_p50 (load)"},
	{"server.query_handler_ms", "ms", "lower", "query primary_ms_p50 (query_ms_p50)"},
	{"server.loopback_ms", "ms", "lower", "query primary_ms_p50 (query_ms_p50)"},
	{"fleet.router_overhead_ms", "ms", "lower", "fleet secondary_ms_p50 (query)"},
	{"fleet.fanout_ms", "ms", "lower", "fleet primary_ms_p50 (reweight)"},
	{"fleet.cache_hit_frac", "ratio", "higher", "fleet secondary_ms_p50 (query)"},
	{"trace.load_layers_ms", "ms", "lower", "ingest primary_ms_p50 (layer sum of a load)"},
	{"trace.load_e2e_ms", "ms", "lower", "ingest primary_ms_p50 (same loads over loopback)"},
	{"trace.load_remainder_ms", "ms", "lower", "ingest primary_ms_p50 (time no layer explains)"},
	{"trace.query_layers_ms", "ms", "lower", "query primary_ms_p50 (layer sum of a query)"},
	{"trace.query_e2e_ms", "ms", "lower", "query primary_ms_p50 (same queries over loopback)"},
	{"trace.query_remainder_ms", "ms", "lower", "query primary_ms_p50 (time no layer explains)"},
	{"trace.path_layers_ms", "ms", "lower", "query secondary_ms_p50 (layer sum of a path query)"},
	{"trace.path_e2e_ms", "ms", "lower", "query secondary_ms_p50 (same queries over loopback)"},
	{"trace.path_remainder_ms", "ms", "lower", "query secondary_ms_p50 (time no layer explains)"},
	{"trace.reweight_layers_ms", "ms", "lower", "churn primary_ms_p50 (layer sum of a reweight)"},
	{"trace.reweight_e2e_ms", "ms", "lower", "churn primary_ms_p50 (same reweights over loopback)"},
	{"trace.reweight_remainder_ms", "ms", "lower", "churn primary_ms_p50 (time no layer explains)"},
}
