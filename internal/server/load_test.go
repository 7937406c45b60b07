package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentLoad drives the full middleware stack — cache hits,
// singleflight, the concurrency limiter and per-request deadlines — from
// many goroutines at once. Run under -race it is the lifecycle's thread-
// safety regression test.
func TestConcurrentLoad(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 4
	cfg.CacheSize = 8
	cfg.Timeout = 2 * time.Second
	s := NewWithConfig(testEngine(t), cfg)

	paths := []string{
		"/v1/search?q=xml+rdf+sql",         // cacheable, repeated → hits
		"/v1/search?q=xml+rdf+sql",         // identical: singleflight + cache
		"/v1/search?q=sparql+rdf",          // second entry
		"/v1/search?q=query+language&k=5",  // third entry
		"/v1/search?q=xml&variant=seq",     // ignored parameter: q=xml's entry
		"/v1/search?q=zzzznothing",         // 422, never cached
		"/v1/search?q=xml&k=abc",           // 400 malformed
		"/v1/search?q=xml+rdf+sql&alpha=x", // 400 malformed
		"/",                                // HTML index
		"/?q=xml+rdf+sql",                  // HTML with shared cache entry
		"/v1/stats",                        // read-only JSON
		"/metrics",                         // exposition under load
		"/healthz",                         //
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusUnprocessableEntity: true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
	}

	const goroutines = 8
	const iters = 30
	var ok200 atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := paths[(g*iters+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if !allowed[w.Code] {
					t.Errorf("%s: unexpected status %d (body %s)", path, w.Code, w.Body)
					return
				}
				if w.Code == http.StatusOK {
					ok200.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no request succeeded under load")
	}

	// The measurement surface must reflect the storm: requests counted,
	// cache exercised, nothing left in flight.
	w := get(t, s, "/metrics")
	out := w.Body.String()
	if !strings.Contains(out, `wikisearch_http_requests_total{code="200"}`) {
		t.Errorf("missing 200 counter:\n%s", out)
	}
	if !strings.Contains(out, "wikisearch_http_in_flight 0") {
		t.Errorf("in-flight gauge not drained:\n%s", out)
	}
	if s.met.cacheHits.Value() == 0 {
		t.Error("no cache hits under repeated identical load")
	}
	if s.met.cacheMisses.Value() == 0 {
		t.Error("no cache misses recorded")
	}
	if s.cache.len() > cfg.CacheSize {
		t.Errorf("cache grew to %d entries, bound is %d", s.cache.len(), cfg.CacheSize)
	}
}

// TestConcurrentIdenticalQueriesSingleflight fires a burst of identical
// cold queries and checks they collapse into few engine searches.
func TestConcurrentIdenticalQueriesSingleflight(t *testing.T) {
	s := testServer(t)
	const burst = 16
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml+rdf+sql&k=7", nil))
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	hits, misses := s.met.cacheHits.Value(), s.met.cacheMisses.Value()
	if hits+misses != burst {
		t.Fatalf("hits %d + misses %d != %d", hits, misses, burst)
	}
	// All goroutines raced the first search; without deduplication every
	// one would be a miss. Timing allows a few stragglers to start their
	// own search after the leader finished, but the bulk must share.
	if misses > burst/2 {
		t.Errorf("%d/%d engine searches for one identical burst; singleflight not deduplicating", misses, burst)
	}
	var resp V1SearchResponse
	w := get(t, s, "/v1/search?q=xml+rdf+sql&k=7")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Stats == nil || !resp.Stats.Cached {
		t.Fatalf("follow-up not cached: %v %s", err, w.Body)
	}
}

// TestSequentialMixedWorkload exercises every endpoint back-to-back to
// catch cross-request state leaks (a previous request's cache entry or
// status must never bleed into the next response's correctness).
func TestSequentialMixedWorkload(t *testing.T) {
	s := testServer(t)
	for round := 0; round < 3; round++ {
		for k := 1; k <= 4; k++ {
			w := get(t, s, fmt.Sprintf("/v1/search?q=xml+rdf+sql&k=%d", k))
			if w.Code != http.StatusOK {
				t.Fatalf("round %d k=%d: %d %s", round, k, w.Code, w.Body)
			}
			wantCache := "MISS"
			if round > 0 {
				wantCache = "HIT"
			}
			if got := w.Header().Get("X-Cache"); got != wantCache {
				t.Fatalf("round %d k=%d: X-Cache %q, want %q", round, k, got, wantCache)
			}
		}
	}
	s.PurgeCache()
	if w := get(t, s, "/v1/search?q=xml+rdf+sql&k=1"); w.Header().Get("X-Cache") != "MISS" {
		t.Fatal("purge left entries behind")
	}
}

// TestConcurrentLoadWithTinyDeadline floods a server whose deadline is so
// small that most searches die; the service must stay consistent and keep
// serving cache-independent endpoints.
func TestConcurrentLoadWithTinyDeadline(t *testing.T) {
	cfg := quietConfig()
	cfg.Timeout = time.Nanosecond
	cfg.MaxInFlight = 2
	s := NewWithConfig(testEngine(t), cfg)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/search?q=xml+rdf+sql", nil))
				if w.Code != http.StatusGatewayTimeout && w.Code != http.StatusServiceUnavailable {
					t.Errorf("status %d, want 504 or 503", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after deadline storm: %d", w.Code)
	}
	if s.met.timeouts.Value() == 0 {
		t.Error("no timeouts recorded despite nanosecond deadline")
	}
}
