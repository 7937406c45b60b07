package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wikisearch"
)

// TestDebugTraceEndpoints: after a search, the trace shows up in
// /v1/debug/traces, is fetchable by its request ID with a well-formed span
// tree, and exports valid Chrome trace_event JSON.
func TestDebugTraceEndpoints(t *testing.T) {
	s := testServer(t)

	sw := get(t, s, "/v1/search?q=sparql+rdf")
	if sw.Code != http.StatusOK {
		t.Fatalf("search status = %d: %s", sw.Code, sw.Body)
	}
	reqID := sw.Header().Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("search response missing X-Request-ID")
	}

	// The listing endpoint: the search's trace is in the recent ring.
	w := get(t, s, "/v1/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("traces status = %d: %s", w.Code, w.Body)
	}
	var listEnv struct {
		Stats struct {
			SlowThresholdMs float64                  `json:"slow_threshold_ms"`
			Recent          []*wikisearch.QueryTrace `json:"recent"`
			Slow            []*wikisearch.QueryTrace `json:"slow"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listEnv); err != nil {
		t.Fatal(err)
	}
	list := listEnv.Stats
	if list.SlowThresholdMs != 500 { // the server default
		t.Fatalf("slow_threshold_ms = %v, want 500", list.SlowThresholdMs)
	}
	if len(list.Recent) == 0 {
		t.Fatalf("recent ring empty after a search: %s", w.Body)
	}
	if list.Recent[0].Query != "sparql rdf" {
		t.Fatalf("newest trace is %q, want the search just run", list.Recent[0].Query)
	}

	// Fetch by request ID: the handler context must carry the middleware's
	// request ID through the engine into the trace.
	w = get(t, s, "/v1/debug/trace?req="+reqID)
	if w.Code != http.StatusOK {
		t.Fatalf("trace by req status = %d: %s", w.Code, w.Body)
	}
	var oneEnv struct {
		Stats struct {
			Trace *wikisearch.QueryTrace `json:"trace"`
			Tree  *wikisearch.TraceSpan  `json:"tree"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &oneEnv); err != nil {
		t.Fatal(err)
	}
	one := oneEnv.Stats
	if one.Trace == nil || one.Tree == nil {
		t.Fatalf("trace/tree missing: %s", w.Body)
	}
	if got := strconv.FormatUint(one.Trace.RequestID, 10); got != reqID {
		t.Fatalf("trace request id %s, want %s", got, reqID)
	}
	if one.Tree.Name != "search" || len(one.Tree.Children) == 0 {
		t.Fatalf("span tree not assembled: %+v", one.Tree)
	}

	// Chrome trace_event export: complete events only, one process, a
	// leading metadata span naming the query.
	w = get(t, s, "/v1/debug/trace?id="+strconv.FormatUint(one.Trace.ID, 10)+"&format=chrome")
	if w.Code != http.StatusOK {
		t.Fatalf("chrome trace status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("chrome trace content type = %q", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(bytes.NewReader(w.Body.Bytes())).Decode(&chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) < 2 {
		t.Fatalf("chrome trace has %d events", len(chrome.TraceEvents))
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("malformed chrome event: %+v", ev)
		}
	}
	if chrome.TraceEvents[0].Name != "search" || chrome.TraceEvents[0].Args["query"] != "sparql rdf" {
		t.Fatalf("chrome trace missing the query metadata span: %+v", chrome.TraceEvents[0])
	}

	// Error surface: no selector is a 400, an aged-out id is a 404.
	if w := get(t, s, "/v1/debug/trace"); w.Code != http.StatusBadRequest {
		t.Fatalf("missing selector status = %d", w.Code)
	}
	if w := get(t, s, "/v1/debug/trace?id=999999"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", w.Code)
	}
}

// TestDebugTracesEmpty: on a fresh server, before any search, the listing
// endpoint answers empty rings (JSON arrays, not null), never 500.
func TestDebugTracesEmpty(t *testing.T) {
	w := get(t, testServer(t), "/v1/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("traces status = %d", w.Code)
	}
	var env struct {
		Stats struct {
			Recent json.RawMessage `json:"recent"`
			Slow   json.RawMessage `json:"slow"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if string(env.Stats.Recent) != "[]" || string(env.Stats.Slow) != "[]" {
		t.Fatalf("want empty recent and slow rings: %s", w.Body)
	}
}

// TestDebugTracesSlowOff: with the slow-query log disabled, a search fills
// the recent ring only, logs no slow line, and the listing reports a zero
// threshold.
func TestDebugTracesSlowOff(t *testing.T) {
	var buf syncBuffer
	s := NewWithConfig(testEngine(t), Config{Logger: log.New(&buf, "", 0), SlowQuery: -1})
	if w := get(t, s, "/v1/search?q=sparql+rdf"); w.Code != http.StatusOK {
		t.Fatalf("search status = %d", w.Code)
	}
	w := get(t, s, "/v1/debug/traces")
	var env struct {
		Stats struct {
			SlowThresholdMs *float64          `json:"slow_threshold_ms"`
			Recent          []json.RawMessage `json:"recent"`
			Slow            []json.RawMessage `json:"slow"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	st := env.Stats
	if st.SlowThresholdMs == nil || *st.SlowThresholdMs != 0 || len(st.Recent) != 1 || len(st.Slow) != 0 {
		t.Fatalf("want threshold 0, one recent trace, no slow ones: %s", w.Body)
	}
	if strings.Contains(buf.String(), "slow query") || s.met.slowQueries.Value() != 0 {
		t.Fatalf("slow-query log disabled but a line was logged:\n%s", buf.String())
	}
}

// TestSlowQueryLog: a search slower than the threshold emits one structured
// slog line with the per-phase breakdown and bumps the counter.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	cfg := Config{
		Logger:    log.New(&buf, "", 0),
		SlowQuery: time.Nanosecond, // everything is slow
	}
	s := NewWithConfig(testEngine(t), cfg)

	if w := get(t, s, "/v1/search?q=sparql+rdf"); w.Code != http.StatusOK {
		t.Fatalf("search status = %d", w.Code)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, `query="sparql rdf"`) {
		t.Fatalf("no slow-query line logged:\n%s", out)
	}
	for _, field := range []string{"duration_ms=", "expand_ms=", "topdown_ms=", "truncated_graphs=0"} {
		if !strings.Contains(out, field) {
			t.Fatalf("slow-query line missing %s:\n%s", field, out)
		}
	}
	if got := s.met.slowQueries.Value(); got == 0 {
		t.Fatal("slow query counter not bumped")
	}
}

// syncBuffer guards a bytes.Buffer for use as a concurrent slog sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
