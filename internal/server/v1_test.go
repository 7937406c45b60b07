package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update. Golden files pin the /v1 wire format: any change to the
// envelope shows up as a reviewable diff.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/server -run V1 -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// normalizeJSON re-encodes body with deterministic indentation after
// zeroing the named top-level "stats" fields (timings and sampled values
// vary run to run; the schema is what the golden files pin).
func normalizeJSON(t *testing.T, body []byte, zeroStats ...string) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if stats, ok := m["stats"].(map[string]any); ok {
		for _, f := range zeroStats {
			if _, present := stats[f]; !present {
				t.Fatalf("stats field %q missing from %s", f, body)
			}
			stats[f] = 0
		}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestV1SearchGolden(t *testing.T) {
	s := testServer(t)
	w := get(t, s, "/v1/search?q=xml+rdf+sql&k=3")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	if w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("X-Cache = %q", w.Header().Get("X-Cache"))
	}
	checkGolden(t, "v1_search.json", normalizeJSON(t, w.Body.Bytes(), "total_ms"))

	// Error envelopes are fully deterministic; no normalization.
	w = get(t, s, "/v1/search?q=xml&k=0")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_search_bad_request.json", w.Body.Bytes())

	w = get(t, s, "/v1/search?q=zzzznothing")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_search_unprocessable.json", w.Body.Bytes())
}

func TestV1StatsGolden(t *testing.T) {
	w := get(t, testServer(t), "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_stats.json", normalizeJSON(t, w.Body.Bytes(), "avg_distance"))
}

// TestV1ErrorStatuses walks the error contract: every failure mode answers
// with the documented status and stable error code.
func TestV1ErrorStatuses(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		path string
		code int
		ec   string
	}{
		{"/v1/search", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=xml&k=abc", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=xml&k=9999", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=xml&alpha=0", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=xml&lambda=2", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=sparql+rdf&alpha=NaN", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=sparql+rdf&lambda=NaN", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=xml&variant=tpu", http.StatusBadRequest, "bad_request"},
		{"/v1/search?q=zzzznothing", http.StatusUnprocessableEntity, "unprocessable"},
	}
	for _, c := range cases {
		w := get(t, s, c.path)
		if w.Code != c.code {
			t.Errorf("%s: status = %d, want %d (body %s)", c.path, w.Code, c.code, w.Body)
		}
		var resp V1SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Errorf("%s: invalid JSON: %v", c.path, err)
			continue
		}
		if resp.Error == nil || resp.Error.Code != c.ec || resp.Error.Message == "" {
			t.Errorf("%s: error block = %+v, want code %q", c.path, resp.Error, c.ec)
		}
	}
}

// TestV1Timeout: a deadline overrun is a 504 with code "timeout".
func TestV1Timeout(t *testing.T) {
	s := testServerWith(t, Config{Timeout: time.Nanosecond})
	w := get(t, s, "/v1/search?q=xml+rdf+sql")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	var resp V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != "timeout" {
		t.Fatalf("error block = %+v", resp.Error)
	}
}

// TestV1Overloaded: the admission-control rejection keeps the envelope on
// versioned routes.
func TestV1Overloaded(t *testing.T) {
	s := testServerWith(t, Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h := s.withLimit(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	}()
	<-entered
	defer func() { close(release); <-done }()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", w.Code)
	}
	var resp V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != "overloaded" {
		t.Fatalf("error block = %+v", resp.Error)
	}
}

// TestV1PanicEnvelope: a recovered panic on a versioned route answers with
// the envelope, not the HTML page's plain-text 500.
func TestV1PanicEnvelope(t *testing.T) {
	s := testServer(t)
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), false)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", w.Code)
	}
	var resp V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("panic body is not the envelope: %v\n%s", err, w.Body)
	}
	if resp.Error == nil || resp.Error.Code != "internal" {
		t.Fatalf("error block = %+v", resp.Error)
	}
}
