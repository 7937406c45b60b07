package main

import "regexp"

// metricDef declares one reported metric. The tables below are the single
// source of the names, units and bounds; BENCHMARK.json repeats them for the
// acceptance driver and a self-test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the parent's median
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them with -trace 0.
//
// The bounds come from the run-to-run spread measured on the 2-core
// reference sandbox with no CPU stolen: ten runs of one workload differ by
// an interquartile 3-10% of the median in p50 and throughput, 3-11% in p95
// and 4-12% in resident memory, and the whole machine drifts by as much
// over minutes (one seed run four times in a row moved 12%). A bound has to
// sit well above that or the benchmark rejects itself; a comparison of two
// medians of ten runs still resolves about a third of it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "search_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "search_qps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, reported with -trace 1. A layer
// a workload bypasses reports 0. README.md says which end-to-end metric each
// should move.
var perLayer = []metricDef{
	// internal/gen, engine build, internal/storage: the parts of setup_s.
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "engine.build_s", Unit: "s", Better: "lower"},
	{Name: "storage.save_s", Unit: "s", Better: "lower"},
	{Name: "storage.load_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.dump_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.first_query_ms", Unit: "ms", Better: "lower"},
	// internal/text: query preparation as the benchmark redoes it.
	{Name: "text.prepare_us", Unit: "us", Better: "lower"},
	{Name: "text.terms_per_query", Unit: "count", Better: "lower"},
	{Name: "text.postings_per_query", Unit: "count", Better: "lower"},
	// internal/weight: activation levels.
	{Name: "weight.levels_ms", Unit: "ms", Better: "lower"},
	{Name: "weight.level_computes", Unit: "count", Better: "lower"},
	// internal/core: the kernel, from core.Result.Profile.
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.init_ms", Unit: "ms", Better: "lower"},
	{Name: "core.enqueue_ms", Unit: "ms", Better: "lower"},
	{Name: "core.identify_ms", Unit: "ms", Better: "lower"},
	{Name: "core.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "core.topdown_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "core.levels", Unit: "count", Better: "lower"},
	{Name: "core.frontier_nodes", Unit: "count", Better: "lower"},
	{Name: "core.edges_scanned", Unit: "count", Better: "lower"},
	{Name: "core.edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_op", Unit: "count", Better: "lower"},
	// internal/parallel: omitted, never written, when NumCPU == 1.
	{Name: "parallel.speedup", Unit: "x", Better: "higher"},
	{Name: "parallel.efficiency", Unit: "x", Better: "higher"},
	// wikisearch engine: prepare, epoch pin, state pool, resolve.
	{Name: "engine.search_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.state_reuse_share", Unit: "share", Better: "higher"},
	// batcher, read from GET /metrics.
	{Name: "batch.wait_us", Unit: "us", Better: "lower"},
	{Name: "batch.occupancy", Unit: "count", Better: "higher"},
	{Name: "batch.solo_share", Unit: "share", Better: "lower"},
	// internal/server: parse, limiter, LRU, encode.
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.limited_share", Unit: "share", Better: "lower"},
	{Name: "server.timeout_share", Unit: "share", Better: "lower"},
	// net/http and the loopback socket.
	{Name: "http.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	// mutation and epochs: mutate-mix only.
	{Name: "mutate.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.compactions", Unit: "count", Better: "lower"},
	{Name: "mutate.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "mutate.delta_ops_max", Unit: "count", Better: "lower"},
	{Name: "mutate.backlog_ms_max", Unit: "ms", Better: "lower"},
	{Name: "mutate.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "epoch.retired", Unit: "count", Better: "higher"},
	{Name: "epoch.old_live_max", Unit: "count", Better: "lower"},
	// the harness itself, and the whole process.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values under the names a table declares.
type metricSet map[string]float64

// render pairs every metric of defs with its value (0 when a layer did not
// run) and unit. skip names metrics to leave out entirely.
func (m metricSet) render(defs []metricDef, skip map[string]bool) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if skip[d.Name] {
			continue
		}
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
