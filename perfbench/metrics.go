package main

// defaultSeed is the seed the committed paper-artifact digest was taken
// at; heldOutSeed is kept out of tuning and used to confirm a claim.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// endToEndMetrics are the metrics the untraced run prints for every
// workload (see MANIFEST.md for what each measures per workload).
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
}

// layerMetric names one reported metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics are the workload-specific metrics of the traced run. A
// workload reports 0 for a layer it does not exercise.
var perLayerMetrics = []layerMetric{
	// campaign → throughput_per_s (sessions/s)
	{"netalyzr.run_p50_ms", "ms"},
	{"netalyzr.runs", "count"},
	{"tlsnet.dial_p50_ms", "ms"},
	{"mitm.dial_p50_ms", "ms"},
	{"collect.submit_p50_ms", "ms"},
	{"notarynet.observe_p50_ms", "ms"},
	{"notaryshard.ingest_p50_ms", "ms"},
	{"notary.wal.fsyncs_per_session", "count"},
	{"trusteval.evals_per_session", "count"},
	{"trusteval.overrides_per_session", "count"},
	{"resilient.attempts_per_success", "ratio"},
	{"parallel.busy_frac", "ratio"},
	// paper → throughput_per_s and latency_ms (one artifact pass)
	{"notary.ingest_ms", "ms"},
	{"notary.ingest_allocs", "count"},
	{"dataset.write_ms", "ms"},
	{"dataset.read_ms", "ms"},
	{"dataset.read_allocs", "count"},
	{"analysis.validate_ms", "ms"},
	{"analysis.figure2_ms", "ms"},
	{"analysis.fleet_ms", "ms"},
	{"analysis.table6_ms", "ms"},
	{"report.render_ms", "ms"},
	{"chain.cache_hits", "count"},
	{"chain.cache_misses", "count"},
	{"chain.cache_hit_rate", "ratio"},
	// notary-service → latency_ms (observe_batch latency)
	{"notaryshard.observe_batch_p50_ms", "ms"},
	{"notary.wal.bytes_per_obs", "B"},
	{"notarynet.wire_p50_ms", "ms"},
	{"notaryshard.has_record_p50_ms", "ms"},
	{"notaryshard.merge_p50_ms", "ms"},
	{"notaryshard.merges_per_stats", "ratio"},
	{"notary.dedup_ratio", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
}

// allPerLayerMetrics is every metric the traced run prints, in the order
// BENCHMARK.json lists them.
func allPerLayerMetrics() []layerMetric {
	out := append([]layerMetric{}, perLayerMetrics...)
	for _, l := range traceLayers {
		out = append(out, layerMetric{"self." + l + "_ms", "ms"})
	}
	return append(out,
		layerMetric{"trace.self_sum_ratio", "ratio"},
		layerMetric{"trace.overhead_pct", "%"},
	)
}
