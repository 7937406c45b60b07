// Package server implements the HTTP JSON search service behind
// cmd/wikiserve — the reproduction of the paper's online WikiSearch demo,
// hardened for production traffic: per-request deadlines, concurrency
// limiting with fast-fail backpressure, an LRU query-result cache with
// singleflight deduplication, panic recovery, access logging with request
// IDs, and a Prometheus-format metrics endpoint.
//
// Endpoints:
//
//	GET  /v1/search?q=<keywords>&k=20&alpha=0.1&lambda=0.2  versioned JSON envelope
//	GET  /v1/stats                                          dataset statistics (envelope)
//	POST /v1/mutate                                         live graph mutations (envelope; 409 read_only unless enabled)
//	GET  /v1/debug/traces                                   trace capture rings (envelope)
//	GET  /v1/debug/trace?id=N | req=N [&format=chrome]      one trace's span tree (envelope)
//	GET  /metrics                                           Prometheus text metrics
//	GET  /healthz                                           liveness
//	GET  /                                                  minimal HTML page
//
// The /v1 endpoints answer with one stable envelope — {"results": …,
// "stats": …} on success, {"error": {"code", "message"}} on failure —
// with consistent status codes: 400 bad_request (malformed parameters),
// 405 method_not_allowed (wrong method on /v1/mutate), 409 read_only or
// conflict (mutation rejected by server or graph state),
// 422 unprocessable (well-formed query the engine cannot answer),
// 503 overloaded (admission control), 504 timeout (deadline overrun),
// 500 internal (recovered panic). The HTML page answers its own failures
// in plain text.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wikisearch"
)

// Config tunes the request lifecycle. The zero value selects production
// defaults; negative values disable the corresponding control.
type Config struct {
	// Timeout bounds each search request (default 5s; negative disables).
	Timeout time.Duration
	// MaxInFlight bounds concurrent searches; excess requests fail fast
	// with 503 (default 64; negative disables).
	MaxInFlight int
	// CacheSize bounds the query-result LRU in entries (default 256;
	// negative disables caching).
	CacheSize int
	// SlowQuery is the threshold above which a search gets a structured
	// slow-query log line with its per-phase breakdown
	// (default 500ms; negative disables). The same threshold selects which
	// traces the /v1/debug/traces slow ring retains.
	SlowQuery time.Duration
	// Logger receives access log lines and panics (default log.Default()).
	// Structured log output (access lines, slow queries) goes to this
	// logger's writer through log/slog.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Server serves search requests over one prepared engine. The engine is
// safe for concurrent searches; Server adds the request lifecycle around
// it.
type Server struct {
	eng       *wikisearch.Engine
	cfg       Config
	mux       *http.ServeMux
	log       *log.Logger
	slog      *slog.Logger // structured twin of log: access lines, slow queries
	met       *serverMetrics
	cache     *resultCache  // nil when disabled
	sem       chan struct{} // nil when unlimited
	nextReqID atomic.Uint64
	// mut is the single-writer mutation handle behind POST /v1/mutate,
	// opened by EnableMutation before serving; nil keeps the server
	// read-only (the route answers 409 read_only).
	mut *wikisearch.Mutator
	// routes records every registered route for Routes(); docs/api.md is
	// pinned to it by a golden test.
	routes []Route
}

// Route describes one registered HTTP route.
type Route struct {
	// Method is the HTTP method, or "*" when the handler accepts any
	// method and dispatches itself.
	Method string `json:"method"`
	// Pattern is the ServeMux path pattern (without the method).
	Pattern string `json:"pattern"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// Routes returns the server's registered route table, sorted by pattern
// then method. docs/api.md documents exactly this set; the route-spec
// golden test fails when they drift apart.
func (s *Server) Routes() []Route {
	out := make([]Route, len(s.routes))
	copy(out, s.routes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// handle registers one route on the mux and records it for Routes().
// pattern is a Go 1.22 ServeMux pattern ("GET /v1/search"); a pattern
// without a method registers for every method (the handler dispatches).
func (s *Server) handle(pattern string, h http.Handler, doc string) {
	method, path, found := strings.Cut(pattern, " ")
	if !found {
		method, path = "*", pattern
	}
	s.routes = append(s.routes, Route{Method: method, Pattern: path, Doc: doc})
	s.mux.Handle(pattern, h)
}

// New builds a Server over the engine with default Config.
func New(eng *wikisearch.Engine) *Server { return NewWithConfig(eng, Config{}) }

// NewWithConfig builds a Server over the engine. It installs the server's
// one search hook, the engine's trace-collector observer, which feeds the
// search latency histograms, the error counter and the slow-query log.
func NewWithConfig(eng *wikisearch.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng: eng,
		cfg: cfg,
		mux: http.NewServeMux(),
		log: cfg.Logger,
		slog: slog.New(slog.NewTextHandler(cfg.Logger.Writer(),
			&slog.HandlerOptions{Level: slog.LevelInfo})),
		met: newServerMetrics(),
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.met.observeLoad(eng.LoadInfo())
	eng.Traces().SetSlowThreshold(max(cfg.SlowQuery, 0)) // 0: slow ring off
	eng.Traces().SetObserver(s.observeTrace)
	s.handle("GET /v1/search", s.instrument(http.HandlerFunc(s.handleV1Search), true),
		"keyword search, versioned envelope")
	s.handle("GET /v1/stats", s.instrument(http.HandlerFunc(s.handleV1Stats), false),
		"dataset, epoch and mutation statistics, versioned envelope")
	s.handle("GET /{$}", s.instrument(http.HandlerFunc(s.handleIndex), true),
		"minimal HTML search page")
	s.handle("GET /metrics", s.instrument(s.met.reg.Handler(), false),
		"Prometheus text metrics")
	s.handle("GET /v1/debug/traces", s.instrument(http.HandlerFunc(s.handleDebugTraces), false),
		"recent and slow trace capture rings, versioned envelope")
	s.handle("GET /v1/debug/trace", s.instrument(http.HandlerFunc(s.handleDebugTrace), false),
		"one trace's span tree by id or request id, versioned envelope")
	// Method-less on purpose: the handler maps non-POST to an enveloped
	// 405 instead of the mux's plain-text one.
	s.handle("/v1/mutate", s.instrument(http.HandlerFunc(s.handleV1Mutate), false),
		"live graph mutations (POST), versioned envelope")
	s.handle("GET /healthz", s.instrument(http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		}), false),
		"liveness probe")
	// Epoch and delta gauges refresh on every /metrics scrape.
	s.met.reg.AddScrapeHook(func() { s.met.observeEpoch(eng.EpochStats()) })
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PurgeCache drops every cached query result (for when the engine's
// underlying data is swapped). A search already running when it is called
// still answers its own requests but caches nothing, and later identical
// requests run a search of their own.
func (s *Server) PurgeCache() {
	if s.cache != nil {
		s.cache.purge()
	}
}

// AnswerPayload is one answer graph in the /v1/search results.
type AnswerPayload struct {
	Central string        `json:"central"`
	Score   float64       `json:"score"`
	Depth   int           `json:"depth"`
	Nodes   []NodePayload `json:"nodes"`
	Edges   []EdgePayload `json:"edges"`
}

// NodePayload is one node of an answer graph.
type NodePayload struct {
	ID       int32    `json:"id"`
	Label    string   `json:"label"`
	Keywords []string `json:"keywords,omitempty"`
	Central  bool     `json:"central,omitempty"`
}

// EdgePayload is one hitting-path edge of an answer graph.
type EdgePayload struct {
	From int32  `json:"from"`
	To   int32  `json:"to"`
	Rel  string `json:"rel"`
}

// StatsResponse is the /v1/stats payload. The load_* fields describe how the
// KB dump got into memory (absent for engines built in memory rather than
// loaded from a dump): load_mode "mmap" means the graph arrays are
// zero-copy views into a live file mapping of mapped_bytes bytes.
type StatsResponse struct {
	Dataset     string  `json:"dataset"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	AvgDistance float64 `json:"avg_distance"`
	Vocabulary  int     `json:"vocabulary"`
	LoadFormat  int     `json:"load_format,omitempty"`
	LoadMode    string  `json:"load_mode,omitempty"`
	MappedBytes int64   `json:"mapped_bytes,omitempty"`
	// Epoch is the search epoch currently serving queries; it advances on
	// every live-mutation publish (1 for an engine that never mutated).
	Epoch uint64 `json:"epoch"`
	// Mutation describes the live-mutation subsystem (absent on read-only
	// servers).
	Mutation *MutationPayload `json:"mutation,omitempty"`
}

// MutationPayload is the mutation block of the stats payload: delta size
// and epoch lifecycle gauges for a mutable server.
type MutationPayload struct {
	// PendingOps counts applied-but-unpublished ops; DeltaOps everything
	// since the last compaction.
	PendingOps int `json:"pending_ops"`
	DeltaOps   int `json:"delta_ops"`
	// DeltaNodes/DeltaEdges/DeltaTerms describe the published snapshot's
	// overlay (all zero right after a compaction).
	DeltaNodes int `json:"delta_nodes"`
	DeltaEdges int `json:"delta_edges"`
	DeltaTerms int `json:"delta_terms"`
	// Publishes and Compactions count epoch publications by kind;
	// EpochsRetired counts epochs fully drained and released.
	Publishes     int64 `json:"publishes"`
	Compactions   int64 `json:"compactions"`
	EpochsRetired int64 `json:"epochs_retired"`
}

// V1Error is the error block of every /v1 envelope. Code is a stable
// machine-readable token (bad_request, unprocessable, timeout, overloaded,
// internal); Message is for humans and may change.
type V1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// V1SearchStats is the stats block of the /v1/search envelope.
type V1SearchStats struct {
	Query      string   `json:"query"`
	Terms      []string `json:"terms"`
	Depth      int      `json:"depth"`
	Candidates int      `json:"candidates"`
	TotalMs    float64  `json:"total_ms"`
	Cached     bool     `json:"cached"`
}

// V1SearchResponse is the /v1/search envelope: results and stats on
// success, error on failure — never both. The server writes a success
// envelope itself (writeSearch), which keeps "results":[] for a search with
// no answer; the type decodes every body.
type V1SearchResponse struct {
	Results []AnswerPayload `json:"results,omitempty"`
	Stats   *V1SearchStats  `json:"stats,omitempty"`
	Error   *V1Error        `json:"error,omitempty"`
}

// V1StatsResponse is the /v1/stats envelope.
type V1StatsResponse struct {
	Stats *StatsResponse `json:"stats,omitempty"`
	Error *V1Error       `json:"error,omitempty"`
}

// searchAnswer is one search as the service serves it: the answers,
// encoded once as the compact JSON of the envelope's results array, and
// the stats every request for the search shares. It is immutable once
// built, so the cache hands one value to every hit and every waiter.
type searchAnswer struct {
	results    []byte // "[]" when the search found no answer
	terms      []string
	depth      int
	candidates int
	total      time.Duration
}

// newSearchAnswer encodes a search result for serving.
func newSearchAnswer(res *wikisearch.Result) (*searchAnswer, error) {
	b, err := json.Marshal(answerPayloads(res))
	if err != nil {
		return nil, err
	}
	return &searchAnswer{
		results:    b,
		terms:      res.Terms,
		depth:      res.Depth,
		candidates: res.Candidates,
		total:      res.Total,
	}, nil
}

// search runs one query through the cache (when enabled): repeated
// identical queries are served from the LRU, and concurrent identical
// queries share a single engine search and its encoded answer.
func (s *Server) search(ctx context.Context, q wikisearch.Query) (ans *searchAnswer, hit bool, err error) {
	run := func() (*searchAnswer, error) {
		res, err := s.eng.Search(ctx, q)
		if err != nil {
			return nil, err
		}
		return newSearchAnswer(res)
	}
	key, ok := cacheKey{}, false
	if s.cache != nil {
		key, ok = cacheKeyFor(q)
	}
	if !ok {
		ans, err = run()
		return ans, false, err
	}
	ans, hit, err = s.cache.do(ctx, key, run)
	if hit {
		s.met.cacheHits.Inc()
	} else {
		s.met.cacheMisses.Inc()
	}
	return ans, hit, err
}

// parseSearchQuery builds a Query from the /v1/search parameters. The
// returned message is
// empty on success and the client-facing description of the first problem
// otherwise (always a 400). Type errors keep their dedicated messages;
// range checks delegate to Query.Validate so the HTTP layer and the Go API
// can never drift apart on what a legal query is.
func parseSearchQuery(r *http.Request) (wikisearch.Query, string) {
	params := r.URL.Query()
	text := params.Get("q")
	if text == "" {
		return wikisearch.Query{}, "missing q parameter"
	}
	k, err := intParam(params, "k", 20)
	if err != nil {
		return wikisearch.Query{}, "k must be an integer"
	}
	alpha, err := floatParam(params, "alpha", 0.1)
	if err != nil {
		return wikisearch.Query{}, "alpha must be a number"
	}
	lambda, err := floatParam(params, "lambda", 0.2)
	if err != nil {
		return wikisearch.Query{}, "lambda must be a number"
	}
	// Zero means "engine default" to Query.Validate; the HTTP contract is
	// stricter — an explicit 0 is out of range.
	switch {
	case k == 0:
		return wikisearch.Query{}, "k must be in [1,200]"
	case alpha == 0:
		return wikisearch.Query{}, "alpha must be in (0,1)"
	case lambda == 0:
		return wikisearch.Query{}, "lambda must be in (0,1]"
	}
	q := wikisearch.Query{Text: text, TopK: k, Alpha: alpha, Lambda: lambda}
	if err := q.Validate(); err != nil {
		return wikisearch.Query{}, strings.TrimPrefix(err.Error(), "wikisearch: ")
	}
	return q, ""
}

// answerPayloads converts a result's answer graphs to their JSON form. The
// slice is never nil, so no answers encode as [], not null.
func answerPayloads(res *wikisearch.Result) []AnswerPayload {
	out := make([]AnswerPayload, 0, len(res.Answers))
	for i := range res.Answers {
		a := &res.Answers[i]
		ap := AnswerPayload{Central: a.CentralLabel, Score: a.Score, Depth: a.Depth}
		for _, n := range a.Nodes {
			ap.Nodes = append(ap.Nodes, NodePayload{
				ID: n.ID, Label: n.Label, Keywords: n.Keywords, Central: n.IsCentral,
			})
		}
		for _, e := range a.Edges {
			ap.Edges = append(ap.Edges, EdgePayload{From: e.From, To: e.To, Rel: e.Rel})
		}
		out = append(out, ap)
	}
	return out
}

// handleV1Search serves the versioned search endpoint.
func (s *Server) handleV1Search(w http.ResponseWriter, r *http.Request) {
	q, msg := parseSearchQuery(r)
	if msg != "" {
		s.v1Error(w, http.StatusBadRequest, "bad_request", msg)
		return
	}
	ans, hit, err := s.search(r.Context(), q)
	if err != nil {
		s.v1SearchError(w, err)
		return
	}
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	s.writeSearch(w, ans, q.Text, hit)
}

// writeSearch writes a /v1/search success envelope in one Write: the
// answer's stored results array, then this request's stats, the only part
// encoded per request. The body equals json.Encoder's encoding of the
// V1SearchResponse, except that a search with no answer keeps its
// "results":[] where omitempty would drop the key.
func (s *Server) writeSearch(w http.ResponseWriter, ans *searchAnswer, query string, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	je := jsonEncoders.Get().(*jsonEncoder)
	defer jsonEncoders.Put(je)
	je.buf.Reset()
	je.buf.WriteString(`{"results":`)
	je.buf.Write(ans.results)
	je.buf.WriteString(`,"stats":`)
	err := je.enc.Encode(&V1SearchStats{
		Query:      query,
		Terms:      ans.terms,
		Depth:      ans.depth,
		Candidates: ans.candidates,
		TotalMs:    float64(ans.total) / float64(time.Millisecond),
		Cached:     hit,
	})
	if err == nil {
		je.buf.Truncate(je.buf.Len() - 1) // Encode's newline
		je.buf.WriteString("}\n")
		_, err = w.Write(je.buf.Bytes())
	}
	if err != nil {
		s.log.Printf("server: encode: %v", err)
	}
}

func (s *Server) handleV1Stats(w http.ResponseWriter, _ *http.Request) {
	st := s.statsResponse()
	s.json(w, http.StatusOK, V1StatsResponse{Stats: &st})
}

// v1SearchError maps a Search error to the right envelope: deadline
// overruns are the server's fault (504), a vanished client gets no
// response at all, and everything else is an unprocessable query (422).
func (s *Server) v1SearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.met.clientGone.Inc() // client gone; drop the write
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		s.v1Error(w, http.StatusGatewayTimeout, "timeout", "search deadline exceeded")
	case errors.As(err, new(*json.UnsupportedValueError)): // a non-finite score
		s.log.Printf("server: encode: %v", err)
		s.v1Error(w, http.StatusInternalServerError, "internal", "internal server error")
	default:
		s.v1Error(w, http.StatusUnprocessableEntity, "unprocessable", err.Error())
	}
}

// statsResponse assembles the /v1/stats payload.
func (s *Server) statsResponse() StatsResponse {
	info := s.eng.LoadInfo()
	resp := StatsResponse{
		Dataset:     s.eng.Name(),
		Nodes:       s.eng.Graph().NumNodes(),
		Edges:       s.eng.Graph().NumEdges(),
		AvgDistance: s.eng.AvgDistance(),
		Vocabulary:  s.eng.VocabSize(),
		LoadFormat:  info.Format,
		LoadMode:    info.Mode,
		MappedBytes: info.MappedBytes,
		Epoch:       s.eng.Epoch(),
	}
	if s.mut != nil {
		ms := s.mut.Stats()
		es := s.eng.EpochStats()
		resp.Mutation = &MutationPayload{
			PendingOps:    ms.PendingOps,
			DeltaOps:      ms.Ops,
			DeltaNodes:    es.DeltaNodes,
			DeltaEdges:    es.DeltaEdges,
			DeltaTerms:    es.DeltaTerms,
			Publishes:     ms.Publishes,
			Compactions:   ms.Compactions,
			EpochsRetired: es.Retired,
		}
	}
	return resp
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><title>WikiSearch</title>
<h1>WikiSearch — parallel keyword search on %s</h1>
<form action="/"><input name="q" size="60" value="%s" placeholder="e.g. sql rdf knowledge base">
<button>Search</button></form>`, html.EscapeString(s.eng.Name()), html.EscapeString(q))
	if q == "" {
		return
	}
	// Defaults match /v1/search's, so both endpoints share cache entries.
	ans, _, err := s.search(r.Context(), wikisearch.Query{
		Text: q, TopK: 20, Alpha: 0.1, Lambda: 0.2,
	})
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// Client gone; nothing to render.
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprint(w, "<p>error: search deadline exceeded</p>")
		default:
			fmt.Fprintf(w, "<p>error: %s</p>", html.EscapeString(err.Error()))
		}
		return
	}
	renderAnswers(w, ans)
}

// renderAnswers writes the index page's result list from the answer's
// encoded results array, the same cache entry /v1/search serves. Every
// string that originates in graph data or the user's query is
// HTML-escaped.
func renderAnswers(w io.Writer, ans *searchAnswer) {
	var answers []AnswerPayload
	if err := json.Unmarshal(ans.results, &answers); err != nil {
		fmt.Fprintf(w, "<p>error: %s</p>", html.EscapeString(err.Error()))
		return
	}
	fmt.Fprintf(w, "<p>%d answers in %v (d=%d, %d candidates)</p><ol>",
		len(answers), ans.total.Round(time.Microsecond), ans.depth, ans.candidates)
	for _, a := range answers {
		fmt.Fprintf(w, "<li><b>%s</b> (score %.4f, depth %d)<ul>",
			html.EscapeString(a.Central), a.Score, a.Depth)
		for _, n := range a.Nodes {
			kw := ""
			if len(n.Keywords) > 0 {
				kw = fmt.Sprintf(" <i>{%s}</i>", html.EscapeString(strings.Join(n.Keywords, " ")))
			}
			fmt.Fprintf(w, "<li>%s%s</li>", html.EscapeString(n.Label), kw)
		}
		fmt.Fprint(w, "</ul></li>")
	}
	fmt.Fprint(w, "</ol>")
}

// jsonEncoder is a compact JSON encoder (HTML escaping on, the encoding/json
// default) writing into its own buffer. The buffer keeps its capacity
// between responses, so a response's bytes are no longer garbage for the
// collector, and the body goes out in one Write. Every /v1 body is compact,
// single-line JSON.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	return je
}}

func (s *Server) json(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	je := jsonEncoders.Get().(*jsonEncoder)
	defer jsonEncoders.Put(je)
	je.buf.Reset()
	err := je.enc.Encode(v)
	if err == nil {
		_, err = w.Write(je.buf.Bytes())
	}
	if err != nil {
		s.log.Printf("server: encode: %v", err)
	}
}

// v1Error writes a /v1 error envelope: {"error": {"code", "message"}}.
func (s *Server) v1Error(w http.ResponseWriter, status int, code, msg string) {
	s.json(w, status, V1SearchResponse{Error: &V1Error{Code: code, Message: msg}})
}

// isV1 reports whether the request targets a versioned endpoint, so the
// middleware can pick the matching error body shape.
func isV1(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/") }

// intParam parses an integer query parameter. An absent parameter yields
// the default; a present but malformed one is an error, so clients hear
// about typos instead of silently getting default behavior.
func intParam(params url.Values, name string, def int) (int, error) {
	raw := params.Get(name)
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// floatParam parses a float query parameter with the same absent-versus-
// malformed distinction as intParam.
func floatParam(params url.Values, name string, def float64) (float64, error) {
	raw := params.Get(name)
	if raw == "" {
		return def, nil
	}
	return strconv.ParseFloat(raw, 64)
}
