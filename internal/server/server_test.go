package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wikisearch"
)

func testEngine(t *testing.T) *wikisearch.Engine {
	t.Helper()
	b := wikisearch.NewBuilder()
	sql := b.AddNode("SQL", "query language for relational databases")
	hub := b.AddNode("Query language", "")
	sparql := b.AddNode("SPARQL", "RDF query language")
	rdf := b.AddNode("RDF", "resource description framework")
	xq := b.AddNode("XQuery", "XML query language")
	b.AddEdgeNamed(sql, hub, "instance of")
	b.AddEdgeNamed(sparql, hub, "instance of")
	b.AddEdgeNamed(xq, hub, "instance of")
	b.AddEdgeNamed(sparql, rdf, "designed for")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{DistanceSamplePairs: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetName("test-kb")
	return eng
}

func quietConfig() Config {
	return Config{Logger: log.New(io.Discard, "", 0)}
}

func testServer(t *testing.T) *Server {
	t.Helper()
	return NewWithConfig(testEngine(t), quietConfig())
}

func testServerWith(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return NewWithConfig(testEngine(t), cfg)
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	w := get(t, testServer(t), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
}

func TestStats(t *testing.T) {
	w := get(t, testServer(t), "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp V1StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	st := resp.Stats
	if resp.Error != nil || st == nil || st.Dataset != "test-kb" || st.Nodes != 5 || st.Edges != 4 || st.Vocabulary == 0 {
		t.Fatalf("stats envelope = %+v", resp)
	}
}

func TestSearchOK(t *testing.T) {
	s := testServer(t)
	for _, variant := range []string{"", "cpu", "cpu-d", "gpu", "seq"} {
		url := "/v1/search?q=xml+rdf+sql&k=3"
		if variant != "" {
			url += "&variant=" + variant
		}
		w := get(t, s, url)
		if w.Code != http.StatusOK {
			t.Fatalf("variant %q: status = %d body %s", variant, w.Code, w.Body)
		}
		var resp V1SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error != nil || resp.Stats == nil || len(resp.Stats.Terms) != 3 || len(resp.Results) == 0 {
			t.Fatalf("variant %q: resp = %+v", variant, resp)
		}
		a := resp.Results[0]
		if a.Central == "" || len(a.Nodes) == 0 {
			t.Fatalf("variant %q: bad answer %+v", variant, a)
		}
		central := 0
		for _, n := range a.Nodes {
			if n.Central {
				central++
			}
		}
		if central != 1 {
			t.Fatalf("variant %q: %d central nodes", variant, central)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/search", http.StatusBadRequest},                        // missing q
		{"/v1/search?q=xml&k=0", http.StatusBadRequest},              // bad k
		{"/v1/search?q=xml&k=9999", http.StatusBadRequest},           // bad k
		{"/v1/search?q=xml&alpha=0", http.StatusBadRequest},          // bad alpha
		{"/v1/search?q=xml&alpha=1.5", http.StatusBadRequest},        // bad alpha
		{"/v1/search?q=xml&lambda=0", http.StatusBadRequest},         // bad lambda
		{"/v1/search?q=xml&variant=tpu", http.StatusBadRequest},      // bad variant
		{"/v1/search?q=zzzznothing", http.StatusUnprocessableEntity}, // unmatched keyword
		{"/v1/search?q=the+of+and", http.StatusUnprocessableEntity},  // stopwords only
	}
	for _, c := range cases {
		w := get(t, s, c.path)
		if w.Code != c.code {
			t.Errorf("%s: status = %d, want %d (body %s)", c.path, w.Code, c.code, w.Body)
		}
		want := "bad_request"
		if c.code == http.StatusUnprocessableEntity {
			want = "unprocessable"
		}
		assertErrorCode(t, c.path, w, want)
	}
}

// assertErrorCode checks that w carries a /v1 error envelope with the
// stable code and a message.
func assertErrorCode(t *testing.T, path string, w *httptest.ResponseRecorder, code string) {
	t.Helper()
	var resp V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Errorf("%s: invalid JSON %v: %s", path, err, w.Body)
		return
	}
	if resp.Error == nil || resp.Error.Code != code || resp.Error.Message == "" {
		t.Errorf("%s: error block = %+v, want code %q", path, resp.Error, code)
	}
}

// TestMalformedParamsRejected is the regression test for the silent
// parameter fallback: k=abc used to behave as if k were omitted; it must
// be a 400 so clients hear about their typos.
func TestMalformedParamsRejected(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/v1/search?q=xml&k=abc",
		"/v1/search?q=xml&k=1.5",
		"/v1/search?q=xml&alpha=x",
		"/v1/search?q=xml&lambda=x",
	} {
		w := get(t, s, path)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", path, w.Code, w.Body)
		}
		assertErrorCode(t, path, w, "bad_request")
	}
	// Absent parameters still select the defaults.
	if w := get(t, s, "/v1/search?q=xml"); w.Code != http.StatusOK {
		t.Fatalf("absent params: status = %d body %s", w.Code, w.Body)
	}
}

// TestDeadlineExceededMaps504 is the regression test for context errors
// being reported as 422 "unprocessable": a search that overran the
// deadline is the server's failure, not the query's.
func TestDeadlineExceededMaps504(t *testing.T) {
	s := testServerWith(t, Config{Timeout: time.Nanosecond})
	w := get(t, s, "/v1/search?q=xml+rdf+sql")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body)
	}
	assertErrorCode(t, "/v1/search", w, "timeout")
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Fatalf("body = %s", w.Body)
	}
}

// TestClientCancelDropsWrite: when the client is gone there is nobody to
// answer; the handler must not write a 422 error payload into the void.
func TestClientCancelDropsWrite(t *testing.T) {
	s := testServerWith(t, Config{Timeout: -1}) // isolate cancellation from the deadline
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=xml+rdf+sql", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Body.Len() != 0 {
		t.Fatalf("wrote %q to a cancelled client", w.Body)
	}
}

func TestIndexPage(t *testing.T) {
	s := testServer(t)
	w := get(t, s, "/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "WikiSearch") {
		t.Fatalf("index page: %d %s", w.Code, w.Body)
	}
	// With a query, results render; HTML is escaped.
	w = get(t, s, "/?q=xml+rdf+sql")
	if !strings.Contains(w.Body.String(), "answers in") {
		t.Fatalf("no results rendered: %s", w.Body)
	}
	w = get(t, s, "/?q=%3Cscript%3Ealert(1)%3C%2Fscript%3E")
	if strings.Contains(w.Body.String(), "<script>") {
		t.Fatal("query text not escaped")
	}
}

// TestRenderAnswersEscapesKeywords is the regression test for the XSS in
// the index page: answer-node keywords were rendered with %v and no
// escaping. Keywords derive from the user's query, so any HTML in them
// must come out inert.
func TestRenderAnswersEscapesKeywords(t *testing.T) {
	res := &wikisearch.Result{
		Answers: []wikisearch.Answer{{
			CentralLabel: "<b>central</b>",
			Nodes: []wikisearch.AnswerNode{{
				Label:    "<img src=x onerror=alert(1)>",
				Keywords: []string{"<script>alert(1)</script>", "sql"},
			}},
		}},
	}
	var b strings.Builder
	renderAnswers(&b, res)
	out := b.String()
	for _, bad := range []string{"<script>", "<img", "<b>central</b>"} {
		if strings.Contains(out, bad) {
			t.Errorf("unescaped %q in rendered HTML:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "&lt;script&gt;alert(1)&lt;/script&gt; sql") {
		t.Errorf("escaped keywords missing from:\n%s", out)
	}
}

// TestIndexHonorsRequestContext is the regression test for handleIndex
// calling Search with no context: under a tiny server deadline the page
// must report the timeout instead of happily searching forever.
func TestIndexHonorsRequestContext(t *testing.T) {
	s := testServerWith(t, Config{Timeout: time.Nanosecond})
	w := get(t, s, "/?q=xml+rdf+sql")
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Fatalf("index ignored the request deadline: %s", w.Body)
	}
	if strings.Contains(w.Body.String(), "answers in") {
		t.Fatalf("results rendered past the deadline: %s", w.Body)
	}
}

func TestCacheHitIsServedAndFaster(t *testing.T) {
	s := testServer(t)
	const path = "/v1/search?q=xml+rdf+sql&k=5"

	start := time.Now()
	w := get(t, s, path)
	cold := time.Since(start)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("cold: code %d X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	coldBody := w.Body.String()

	warm := cold
	var warmBody string
	for i := 0; i < 5; i++ {
		start = time.Now()
		w = get(t, s, path)
		if d := time.Since(start); d < warm {
			warm = d
		}
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("warm %d: code %d X-Cache %q", i, w.Code, w.Header().Get("X-Cache"))
		}
		warmBody = w.Body.String()
	}
	if warm > cold {
		t.Errorf("cache hit took %v, cold search took %v", warm, cold)
	}
	// The payload is identical except the cached flag.
	var coldResp, warmResp V1SearchResponse
	if err := json.Unmarshal([]byte(coldBody), &coldResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(warmBody), &warmResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.Stats.Cached || !warmResp.Stats.Cached {
		t.Fatalf("cached flags: cold %v warm %v", coldResp.Stats.Cached, warmResp.Stats.Cached)
	}
	if len(warmResp.Results) != len(coldResp.Results) {
		t.Fatalf("answers differ: cold %d warm %d", len(coldResp.Results), len(warmResp.Results))
	}
	// Differently normalized but identical queries share the entry.
	w = get(t, s, "/v1/search?q=XML,+rdf...+SQL&k=5")
	if w.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("normalized-equal query missed the cache (X-Cache %q)", w.Header().Get("X-Cache"))
	}
	// A different k is a different search.
	w = get(t, s, "/v1/search?q=xml+rdf+sql&k=6")
	if w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("k=6 unexpectedly hit the k=5 entry")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	// Generate traffic: two cold searches, one repeat (cache hit), one
	// unprocessable query, one bad request.
	for _, path := range []string{
		"/v1/search?q=xml+rdf+sql",
		"/v1/search?q=sparql+rdf",
		"/v1/search?q=xml+rdf+sql",
		"/v1/search?q=zzzznothing",
		"/v1/search?q=xml&k=abc",
	} {
		get(t, s, path)
	}
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		`wikisearch_http_requests_total{code="200"} 3`,
		`wikisearch_http_requests_total{code="422"} 1`,
		`wikisearch_http_requests_total{code="400"} 1`,
		"wikisearch_http_in_flight 0",
		"wikisearch_cache_hits_total 1",
		"wikisearch_cache_misses_total 3", // two OK searches + the unmatched-keyword one
		"wikisearch_search_errors_total 1",
		"wikisearch_search_seconds_count 2",
		`wikisearch_search_phase_seconds_bucket{phase="Expansion",le="+Inf"} 2`,
		`wikisearch_search_phase_seconds_bucket{phase="Top-down Processing",le="+Inf"} 2`,
		"# TYPE wikisearch_search_phase_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestLimiterFastFail exercises the admission control: with one slot
// occupied, the next search is rejected immediately with 503.
func TestLimiterFastFail(t *testing.T) {
	s := testServerWith(t, Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var enteredOnce sync.Once
	h := s.withLimit(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		enteredOnce.Do(func() { close(entered) })
		<-release // closed after the 503 check; later calls pass through
		w.WriteHeader(http.StatusOK)
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	}()
	<-entered // the slot is held

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	assertErrorCode(t, "/v1/search", w, "overloaded")
	close(release)
	<-done

	// The slot is free again.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	if w.Code == http.StatusServiceUnavailable {
		t.Fatal("limiter leaked its slot")
	}
	if got := s.met.limited.Value(); got != 1 {
		t.Fatalf("limited counter = %d, want 1", got)
	}
}

func TestRequestIDsAssigned(t *testing.T) {
	s := testServer(t)
	a := get(t, s, "/healthz").Header().Get("X-Request-ID")
	b := get(t, s, "/healthz").Header().Get("X-Request-ID")
	if a == "" || b == "" || a == b {
		t.Fatalf("request ids = %q, %q", a, b)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := testServer(t)
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), false)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/x", nil)) // must not crash the test binary
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if s.met.panics.Value() != 1 {
		t.Fatalf("panics counter = %d, want 1", s.met.panics.Value())
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	s := testServer(t)
	if w := get(t, s, "/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search?q=xml", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/search: %d", w.Code)
	}
}

// TestLegacyRoutesGone: the unversioned JSON routes were retired in favor
// of /v1 and now answer the mux's 404.
func TestLegacyRoutesGone(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/search?q=xml", "/stats"} {
		if w := get(t, s, path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404 (body %s)", path, w.Code, w.Body)
		}
	}
}

// TestIndexOverloadedPlainText: the HTML page sits behind the same limiter
// as /v1/search, and its 503 is plain text with Retry-After, like its panic
// response.
func TestIndexOverloadedPlainText(t *testing.T) {
	s := testServerWith(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{} // hold the only slot
	w := get(t, s, "/?q=xml")
	<-s.sem
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain", ct)
	}
	if !strings.Contains(w.Body.String(), "server at capacity") {
		t.Fatalf("body = %q", w.Body)
	}
}
