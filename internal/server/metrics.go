package server

import (
	"strconv"

	"wikisearch"
	"wikisearch/internal/core"
	"wikisearch/internal/metrics"
	"wikisearch/internal/trace"
)

// serverMetrics is the service's measurement surface, exposed at
// GET /metrics in Prometheus text format. Search latency, per phase of
// Fig. 6/7 of the paper, and the search error count are folded from each
// search's trace (Server.observeTrace), so every later performance change
// can read its effect off the histograms.
type serverMetrics struct {
	reg *metrics.Registry

	requests   *metrics.CounterVec // by status code
	inFlight   *metrics.Gauge      // searches currently executing
	limited    *metrics.Counter    // fast-fail 503 rejections
	timeouts   *metrics.Counter    // searches past the deadline (504)
	clientGone *metrics.Counter    // requests abandoned by the client
	panics     *metrics.Counter    // recovered handler panics

	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter

	searchSeconds *metrics.Histogram    // engine-side total search time
	phaseSeconds  *metrics.HistogramVec // per-phase profile, by phase name
	searchErrors  *metrics.Counter      // engine searches that returned an error

	kbMappedBytes *metrics.Gauge      // live KB mapping size (0 unless mmap-loaded)
	kbLoadMode    *metrics.CounterVec // 1 on the label of the load mode in use

	slowQueries *metrics.Counter // searches over the slow-query threshold

	epoch         *metrics.Gauge     // current search epoch id
	epochPinned   *metrics.Gauge     // searches pinning the current epoch
	epochsOldLive *metrics.Gauge     // replaced epochs still pinned
	epochsRetired *metrics.Gauge     // replaced epochs fully drained (cumulative)
	deltaNodes    *metrics.Gauge     // overlay: nodes added since compaction
	deltaEdges    *metrics.Gauge     // overlay: net edge delta since compaction
	deltaTerms    *metrics.Gauge     // keyword overlay: affected index terms
	publishes     *metrics.Counter   // epoch publications (delta views)
	compactions   *metrics.Counter   // epoch publications that compacted
	publishSecs   *metrics.Histogram // snapshot build + install wall time
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	// Go runtime health (goroutines, heap, GC pauses, scheduler latency)
	// refreshes itself on every scrape via the registry's hook.
	metrics.NewRuntimeCollector(r)
	return &serverMetrics{
		reg: r,
		requests: r.CounterVec("wikisearch_http_requests_total",
			"HTTP requests served, by status code.", "code"),
		inFlight: r.Gauge("wikisearch_http_in_flight",
			"Search requests currently being served."),
		limited: r.Counter("wikisearch_http_limited_total",
			"Search requests rejected with 503 by the concurrency limiter."),
		timeouts: r.Counter("wikisearch_http_timeouts_total",
			"Search requests that exceeded the per-request deadline."),
		clientGone: r.Counter("wikisearch_http_client_gone_total",
			"Search requests abandoned because the client disconnected."),
		panics: r.Counter("wikisearch_http_panics_total",
			"Handler panics recovered by the middleware."),
		cacheHits: r.Counter("wikisearch_cache_hits_total",
			"Searches served from the query-result cache (including deduplicated concurrent queries)."),
		cacheMisses: r.Counter("wikisearch_cache_misses_total",
			"Searches that had to run the engine."),
		searchSeconds: r.Histogram("wikisearch_search_seconds",
			"Engine search latency (sum of all phases).", nil),
		phaseSeconds: r.HistogramVec("wikisearch_search_phase_seconds",
			"Engine search latency per algorithm phase.", "phase", nil),
		searchErrors: r.Counter("wikisearch_search_errors_total",
			"Engine searches that returned an error."),
		kbMappedBytes: r.Gauge("wikisearch_kb_mapped_bytes",
			"Bytes of the knowledge-base dump held in a live memory mapping (0 unless mmap-loaded)."),
		kbLoadMode: r.CounterVec("wikisearch_kb_load_info",
			"How the knowledge base got into memory: 1 on the mode in use (mmap, read, memory).", "mode"),
		slowQueries: r.Counter("wikisearch_slow_queries_total",
			"Searches whose end-to-end engine time exceeded the slow-query threshold."),
		epoch: r.Gauge("wikisearch_epoch",
			"Current search epoch id (advances on every live-mutation publish)."),
		epochPinned: r.Gauge("wikisearch_epoch_pinned",
			"In-flight searches pinning the current epoch."),
		epochsOldLive: r.Gauge("wikisearch_epochs_old_live",
			"Replaced epochs still held alive by in-flight searches."),
		epochsRetired: r.Gauge("wikisearch_epochs_retired_total",
			"Replaced epochs whose last pinned search drained (cumulative)."),
		deltaNodes: r.Gauge("wikisearch_delta_nodes",
			"Nodes added by the unmerged mutation delta (0 after compaction)."),
		deltaEdges: r.Gauge("wikisearch_delta_edges",
			"Net edge change carried by the unmerged mutation delta (0 after compaction)."),
		deltaTerms: r.Gauge("wikisearch_delta_terms",
			"Index terms overridden by the keyword overlay (0 after compaction)."),
		publishes: r.Counter("wikisearch_publishes_total",
			"Epoch publications that installed a delta view (Mutator.Publish)."),
		compactions: r.Counter("wikisearch_compactions_total",
			"Epoch publications that installed a freshly compacted flat snapshot."),
		publishSecs: r.Histogram("wikisearch_publish_seconds",
			"Wall time to build and install one published snapshot.",
			[]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}),
	}
}

// observeEpoch refreshes the epoch and delta gauges; runs on every
// /metrics scrape.
func (m *serverMetrics) observeEpoch(st wikisearch.EpochStats) {
	m.epoch.Set(int64(st.Epoch))
	m.epochPinned.Set(st.Pinned)
	m.epochsOldLive.Set(int64(st.OldLive))
	m.epochsRetired.Set(st.Retired)
	m.deltaNodes.Set(int64(st.DeltaNodes))
	m.deltaEdges.Set(int64(st.DeltaEdges))
	m.deltaTerms.Set(int64(st.DeltaTerms))
}

// observePublish records one epoch publication; installed as part of the
// publish observer when mutation is enabled.
func (m *serverMetrics) observePublish(info wikisearch.PublishInfo) {
	if info.Compacted {
		m.compactions.Inc()
	} else {
		m.publishes.Inc()
	}
	m.publishSecs.Observe(info.Duration.Seconds())
}

// observeLoad records how the engine's dump was loaded; called once at
// server construction.
func (m *serverMetrics) observeLoad(info wikisearch.LoadInfo) {
	m.kbMappedBytes.Set(info.MappedBytes)
	mode := info.Mode
	if mode == "" {
		mode = "memory" // engine built in process, no dump involved
	}
	m.kbLoadMode.With(mode).Inc()
}

// phaseLabels maps each phase span kind to its search_phase_seconds label:
// the paper's name for the phase, as in Result.Phases. Other kinds are not
// phases and map to "".
var phaseLabels = [...]string{
	trace.KindInit:     core.PhaseInit.String(),
	trace.KindEnqueue:  core.PhaseEnqueue.String(),
	trace.KindIdentify: core.PhaseIdentify.String(),
	trace.KindExpand:   core.PhaseExpand.String(),
	trace.KindTopDown:  core.PhaseTopDown.String(),
}

// countRequest records one served request by status code.
func (m *serverMetrics) countRequest(code int) {
	m.requests.With(strconv.Itoa(code)).Inc()
}
