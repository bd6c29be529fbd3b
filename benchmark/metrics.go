package main

// metricDef is one catalogued metric. The catalogue here and
// ../BENCHMARK.json say the same thing; TestCatalogueMatchesManifest
// keeps them from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload with tracing off. Bound is the share of the parent's median a
// metric may worsen by before a change counts as a regression. One bound
// serves all four workloads, and each is at least three times the widest
// quartile spread seen over ten differently seeded runs on the reference
// box (README.md, "Run-to-run spread"): host time there drifts by 5–8 %
// in minute-long phases, so the wall-clock metrics carry wide bounds and
// the allocation counters, which repeat to about 1 %, are the fine gate.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.04},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.04},
	{Name: "op_p50_d", Unit: "d", Better: "lower", Bound: 0.2},
	{Name: "op_p95_d", Unit: "d", Better: "lower", Bound: 0.25},
	{Name: "latency_over_bound", Unit: "ratio", Better: "lower", Bound: 0.1},
}

// perLayer are the traced pass's metrics, named layer.metric. They carry
// no bound: they explain an end-to-end movement, they do not gate one.
var perLayer = []metricDef{
	{Name: "engine.total_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scenarios", Unit: "count", Better: "higher"},
	{Name: "engine.shards", Unit: "count", Better: "higher"},
	{Name: "engine.components", Unit: "count", Better: "higher"},
	{Name: "engine.slowest_shard_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.study_points", Unit: "count", Better: "lower"},
	{Name: "engine.knee_ops_per_s", Unit: "1/s", Better: "higher"},

	{Name: "workload.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.invocations", Unit: "count", Better: "higher"},

	{Name: "sim.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.ops", Unit: "count", Better: "higher"},
	{Name: "sim.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sim.simulated_s_per_host_s", Unit: "ratio", Better: "higher"},
	{Name: "core.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "tob.busy_ms", Unit: "ms", Better: "lower"},

	{Name: "check.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "check.busy_scalar_ms", Unit: "ms", Better: "lower"},
	{Name: "check.busy_container_ms", Unit: "ms", Better: "lower"},
	{Name: "check.history_ops", Unit: "count", Better: "higher"},
	{Name: "check.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "check.cache_entries", Unit: "count", Better: "lower"},
	{Name: "check.slowest_history_ms", Unit: "ms", Better: "lower"},
	{Name: "check.share", Unit: "ratio", Better: "lower"},

	{Name: "types.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "types.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "types.state_bytes_mean", Unit: "B", Better: "lower"},

	{Name: "keyspace.stream_ms", Unit: "ms", Better: "lower"},
	{Name: "keyspace.ops", Unit: "count", Better: "higher"},
	{Name: "keyspace.moved_keys", Unit: "count", Better: "higher"},
	{Name: "keyspace.handoff_ops", Unit: "count", Better: "lower"},
	{Name: "keyspace.drain_deferred", Unit: "count", Better: "lower"},

	{Name: "live.elapsed_ms", Unit: "ms", Better: "lower"},
	{Name: "live.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "live.retunes", Unit: "count", Better: "lower"},
	{Name: "live.samples", Unit: "count", Better: "higher"},
	{Name: "live.est_d_ms", Unit: "ms", Better: "lower"},
	{Name: "live.est_u_ms", Unit: "ms", Better: "lower"},
	{Name: "live.wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "live.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.check_ms", Unit: "ms", Better: "lower"},

	{Name: "harness.iters", Unit: "count", Better: "higher"},
	{Name: "harness.iter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.iter_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.iter_hi_pct", Unit: "%", Better: "higher"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "harness.wall_s", Unit: "s", Better: "lower"},
}

// measured is one reported value in the result line's shape.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// withUnits pairs measured values with their catalogued units; a metric
// the run did not produce is reported as 0, so every run prints the whole
// catalogue.
func withUnits(defs []metricDef, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
