package wikisearch

import (
	"context"
	"time"

	"wikisearch/internal/core"
	"wikisearch/internal/trace"
)

// TraceCollector retains recently completed query traces; see
// Engine.Traces. The serving layer reads it for GET /v1/debug/traces.
type TraceCollector = trace.Collector

// QueryTrace is one completed query's assembled trace.
type QueryTrace = trace.QueryTrace

// TraceSpan is one node of an assembled trace tree.
type TraceSpan = trace.Span

// TraceEvent is one fixed-width span event of a trace.
type TraceEvent = trace.Event

// WithRequestID returns a context carrying the serving layer's request ID;
// the engine stamps it into the traces it collects so handler and engine
// spans link up.
func WithRequestID(ctx context.Context, id uint64) context.Context {
	return trace.WithRequestID(ctx, id)
}

// Traces returns the engine's trace collector. Tracing is always on — the
// record path is allocation-free and costs ~1% — and every Search call,
// failed ones included, adds exactly one trace. The collector's observer is
// the engine's one search-telemetry outlet: the serving layer folds its
// latency histograms, error counter and slow-query log from these traces.
func (e *Engine) Traces() *TraceCollector { return e.tracer }

// searchStart carries a query's admission timing into the execution paths:
// ns is the trace-clock admission time, t the wall-clock start.
type searchStart struct {
	ns int64
	t  time.Time
}

// startNow opens timing for a query entering the engine.
func startNow() searchStart { return searchStart{ns: trace.Now(), t: time.Now()} }

// traceMeta carries per-query attribution from an execution path to
// collectTrace. Fields past start stay zero when the query failed before
// reaching them.
type traceMeta struct {
	start   searchStart
	epoch   uint64
	params  core.Params
	terms   []string
	events  []trace.Event
	dropped int
}

// collectTrace assembles and retains one completed query's trace. Cold
// path: runs once per search, after the kernel, and may allocate.
func (e *Engine) collectTrace(ctx context.Context, q Query, res *Result, err error, m traceMeta) {
	p := m.params
	if p.TopK == 0 { // rejected by Validate: report the knobs as asked
		p.TopK, p.Alpha, p.Lambda = q.TopK, q.Alpha, q.Lambda
	}
	qt := &QueryTrace{
		RequestID: trace.RequestIDFrom(ctx),
		Query:     q.Text,
		Terms:     m.terms,
		Variant:   q.Variant.String(),
		Epoch:     m.epoch,
		TopK:      p.TopK,
		Alpha:     p.Alpha,
		Lambda:    p.Lambda,
		Start:     m.start.t,
		StartNs:   m.start.ns,
		Duration:  time.Duration(trace.Now() - m.start.ns),
		Dropped:   m.dropped,
		Events:    m.events,
	}
	if err != nil {
		qt.Err = err.Error()
	} else if res != nil {
		qt.Answers = len(res.Answers)
		qt.TruncatedGraphs = res.TruncatedGraphs
	}
	e.tracer.Add(qt)
}
