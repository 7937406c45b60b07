package server

import (
	"net/http"
	"strconv"
	"time"

	"wikisearch"
	"wikisearch/internal/trace"
)

// debugTracesStats is the stats block of the GET /v1/debug/traces
// envelope: the most recent traces plus the retained slow ones, newest
// first.
type debugTracesStats struct {
	SlowThresholdMs float64                  `json:"slow_threshold_ms"`
	Recent          []*wikisearch.QueryTrace `json:"recent"`
	Slow            []*wikisearch.QueryTrace `json:"slow"`
}

// handleDebugTraces serves the trace capture rings in the /v1 envelope.
// Traces are summaries here (events elided); fetch one by id from
// /v1/debug/trace for the tree.
func (s *Server) handleDebugTraces(w http.ResponseWriter, _ *http.Request) {
	tr := s.eng.Traces()
	resp := debugTracesStats{
		SlowThresholdMs: float64(tr.SlowThreshold()) / float64(time.Millisecond),
		Recent:          tr.Recent(),
		Slow:            tr.Slow(),
	}
	if resp.Recent == nil {
		resp.Recent = []*wikisearch.QueryTrace{}
	}
	if resp.Slow == nil {
		resp.Slow = []*wikisearch.QueryTrace{}
	}
	s.json(w, http.StatusOK, v1Envelope{Stats: &resp})
}

// debugTraceStats is the stats block of the GET /v1/debug/trace envelope:
// the trace summary plus its assembled span tree.
type debugTraceStats struct {
	Trace *wikisearch.QueryTrace `json:"trace"`
	Tree  *wikisearch.TraceSpan  `json:"tree"`
}

// handleDebugTrace serves one trace by id (or by request id via req=).
// format=chrome returns the Chrome trace_event JSON loadable in
// chrome://tracing and Perfetto.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.eng.Traces()
	var qt *wikisearch.QueryTrace
	switch {
	case r.URL.Query().Get("id") != "":
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			s.v1Error(w, http.StatusBadRequest, "bad_request", "id must be an integer")
			return
		}
		qt = tr.Get(id)
	case r.URL.Query().Get("req") != "":
		id, err := strconv.ParseUint(r.URL.Query().Get("req"), 10, 64)
		if err != nil {
			s.v1Error(w, http.StatusBadRequest, "bad_request", "req must be an integer")
			return
		}
		qt = tr.FindRequest(id)
	default:
		s.v1Error(w, http.StatusBadRequest, "bad_request", "missing id or req parameter")
		return
	}
	if qt == nil {
		s.v1Error(w, http.StatusNotFound, "not_found", "no such trace (the capture rings are bounded; it may have aged out)")
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		// The Chrome trace_event export is a foreign format by design —
		// loadable in chrome://tracing — so it skips the envelope.
		w.Header().Set("Content-Type", "application/json")
		if err := qt.WriteChrome(w); err != nil {
			s.log.Printf("server: chrome trace: %v", err)
		}
		return
	}
	s.json(w, http.StatusOK, v1Envelope{Stats: &debugTraceStats{Trace: qt, Tree: qt.Tree()}})
}

// observeTrace is installed as the trace collector's observer, the
// server's one search hook; every Search call leaves exactly one trace. A
// failed search bumps the error counter; any other feeds the latency
// histograms: each phase's span sum and their total. A search over the
// slow-query threshold also gets one structured line with its identity,
// knobs and per-phase breakdown — enough to diagnose it without replaying.
func (s *Server) observeTrace(qt *wikisearch.QueryTrace) {
	ns := qt.SpanNs()
	if qt.Err != "" {
		s.met.searchErrors.Inc()
	} else {
		var total int64
		for k, label := range phaseLabels {
			if label != "" {
				total += ns[k]
				s.met.phaseSeconds.With(label).Observe(time.Duration(ns[k]).Seconds())
			}
		}
		s.met.searchSeconds.Observe(time.Duration(total).Seconds())
	}
	if s.cfg.SlowQuery <= 0 || qt.Duration < s.cfg.SlowQuery {
		return
	}
	s.met.slowQueries.Inc()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	s.slog.Warn("slow query",
		"trace", qt.ID,
		"req", qt.RequestID,
		"query", qt.Query,
		"terms", qt.Terms,
		"variant", qt.Variant,
		"k", qt.TopK,
		"alpha", qt.Alpha,
		"lambda", qt.Lambda,
		"duration_ms", ms(int64(qt.Duration)),
		"answers", qt.Answers,
		"truncated_graphs", qt.TruncatedGraphs,
		"err", qt.Err,
		"init_ms", ms(ns[trace.KindInit]),
		"enqueue_ms", ms(ns[trace.KindEnqueue]),
		"identify_ms", ms(ns[trace.KindIdentify]),
		"expand_ms", ms(ns[trace.KindExpand]),
		"topdown_ms", ms(ns[trace.KindTopDown]),
	)
}
