package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wikisearch"
)

// pairEngine builds hubs "hub i" for i < n, each the Central Node of one
// answer to "alpha beta": hub i links an "alpha" node and a "beta" node
// that nothing else reaches. With connected false there are no hubs and
// one alpha–beta pair sits in two separate components, so the keywords
// match but no Central Graph exists.
func pairEngine(t testing.TB, n int, connected bool) *wikisearch.Engine {
	t.Helper()
	b := wikisearch.NewBuilder()
	if !connected {
		b.AddEdgeNamed(b.AddNode("alpha", ""), b.AddNode("left", ""), "next to")
		b.AddEdgeNamed(b.AddNode("beta", ""), b.AddNode("right", ""), "next to")
	}
	for i := 0; i < n; i++ {
		hub := b.AddNode(fmt.Sprintf("hub %d", i), "")
		b.AddEdgeNamed(b.AddNode("alpha", ""), hub, "part of")
		b.AddEdgeNamed(b.AddNode("beta", ""), hub, "part of")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{DistanceSamplePairs: 100})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestResultCacheEnvelopeOracle: the search envelope writer's body equals
// json.Encoder's encoding of the V1SearchResponse (compact, HTML escaping
// on) byte for byte, over random answers whose strings carry HTML
// metacharacters, U+2028/U+2029 and invalid UTF-8. The one allowed
// difference is the "results":[] a search with no answer keeps.
func TestResultCacheEnvelopeOracle(t *testing.T) {
	s := testServer(t)
	rng := rand.New(rand.NewPCG(45, 1))
	pieces := []string{"<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3(", `"`, `\`, "\n", "é", "sql", " "}
	str := func() string {
		var b strings.Builder
		for range rng.IntN(6) {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	strs := func() []string {
		var out []string
		for range rng.IntN(3) {
			out = append(out, str())
		}
		return out
	}
	scores := []float64{1e-7, 0.1, 1e21, 0, 1, 2.5e-3, 123456.789}
	score := func() float64 {
		if rng.IntN(2) == 0 {
			return scores[rng.IntN(len(scores))]
		}
		return rng.Float64() * 10
	}
	for i := 0; i < 500; i++ {
		res := &wikisearch.Result{
			Terms: strs(), Depth: rng.IntN(8), Candidates: rng.IntN(1000),
			Total: time.Duration(rng.Int64N(int64(time.Second))),
		}
		query, hit := str(), rng.IntN(2) == 0
		want := V1SearchResponse{Stats: &V1SearchStats{
			Query: query, Terms: res.Terms, Depth: res.Depth, Candidates: res.Candidates,
			TotalMs: float64(res.Total) / float64(time.Millisecond), Cached: hit,
		}}
		for range rng.IntN(4) {
			a := wikisearch.Answer{CentralLabel: str(), Depth: rng.IntN(8), Score: score()}
			p := AnswerPayload{Central: a.CentralLabel, Score: a.Score, Depth: a.Depth}
			for range rng.IntN(4) {
				n := wikisearch.AnswerNode{ID: rng.Int32(), Label: str(), Keywords: strs(), IsCentral: rng.IntN(2) == 0}
				a.Nodes = append(a.Nodes, n)
				p.Nodes = append(p.Nodes, NodePayload{ID: n.ID, Label: n.Label, Keywords: n.Keywords, Central: n.IsCentral})
			}
			for range rng.IntN(4) {
				e := wikisearch.AnswerEdge{From: rng.Int32(), To: rng.Int32(), Rel: str()}
				a.Edges = append(a.Edges, e)
				p.Edges = append(p.Edges, EdgePayload{From: e.From, To: e.To, Rel: e.Rel})
			}
			res.Answers = append(res.Answers, a)
			want.Results = append(want.Results, p)
		}
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(want); err != nil {
			t.Fatal(err)
		}
		wantBody := b.Bytes()
		if len(res.Answers) == 0 {
			wantBody = bytes.Replace(wantBody, []byte(`{"stats":`), []byte(`{"results":[],"stats":`), 1)
		}
		ans, err := newSearchAnswer(res)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.writeSearch(w, ans, query, hit)
		if !bytes.Equal(w.Body.Bytes(), wantBody) {
			t.Fatalf("case %d: envelope differs from encoding/json\n got: %q\nwant: %q", i, w.Body.Bytes(), wantBody)
		}
	}
}

// TestResultCacheZeroAnswers: a search whose keywords match but that finds
// no Central Graph answers 200 with "results":[], with the cache off, on a
// miss and on a hit.
func TestResultCacheZeroAnswers(t *testing.T) {
	for _, size := range []int{-1, 4} {
		s := NewWithConfig(pairEngine(t, 0, false), Config{CacheSize: size, Logger: quietConfig().Logger})
		for i := 0; i < 2; i++ {
			w := get(t, s, "/v1/search?q=alpha+beta")
			body := w.Body.String()
			if w.Code != http.StatusOK || !strings.HasPrefix(body, `{"results":[],"stats":{`) {
				t.Fatalf("cache %d, request %d: status %d body %s", size, i, w.Code, body)
			}
			var resp V1SearchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Stats == nil || len(resp.Stats.Terms) != 2 {
				t.Fatalf("cache %d, request %d: %v %s", size, i, err, body)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps headers and counts body
// bytes, so measuring a request allocates nothing for the response body.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// TestResultCacheHitAllocsFlat: a cache hit re-encodes nothing, so a
// cached k=20 request allocates exactly as often as a cached k=1 request
// for the same keywords, though its body is many times larger.
func TestResultCacheHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewWithConfig(pairEngine(t, 30, true), quietConfig())
	// Request ids past 255 box into the access log line alike for every run.
	s.nextReqID.Store(1 << 20)
	measure := func(path string) (allocs float64, bytes int) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardWriter{h: http.Header{}}
		s.ServeHTTP(w, req) // the miss that fills the entry
		allocs = testing.AllocsPerRun(200, func() {
			w.n = 0
			s.ServeHTTP(w, req)
		})
		if got := w.h.Get("X-Cache"); got != "HIT" {
			t.Fatalf("%s: X-Cache %q, want HIT", path, got)
		}
		return allocs, w.n
	}
	one, oneBytes := measure("/v1/search?q=alpha+beta&k=1")
	twenty, twentyBytes := measure("/v1/search?q=alpha+beta&k=20")
	if twentyBytes < 10*oneBytes {
		t.Fatalf("k=20 body %d B vs k=1 body %d B: the graph no longer yields 20 answers", twentyBytes, oneBytes)
	}
	if one != twenty {
		t.Fatalf("cached k=1 hit allocates %v times, cached k=20 hit %v times", one, twenty)
	}
}

// TestResultCacheWaitersShareBytes: N concurrent identical requests on a
// cold cache run one engine search and serve its encoded answer; their
// bodies differ only in stats.cached.
func TestResultCacheWaitersShareBytes(t *testing.T) {
	s := testServer(t)
	const path = "/v1/search?q=xml+rdf+sql&k=5"
	var searches atomic.Int32
	gate := make(chan struct{})
	// The observer runs inside Search, so the leader holds its call open
	// until the gate opens while the others park behind it.
	s.eng.Traces().SetObserver(func(qt *wikisearch.QueryTrace) {
		searches.Add(1)
		<-gate
		s.observeTrace(qt)
	})
	key, _ := cacheKeyFor(wikisearch.Query{Text: "xml rdf sql", TopK: 5, Alpha: 0.1, Lambda: 0.2})

	const n = 8
	bodies := make([]string, n)
	xcache := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := get(t, s, path)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d body %s", i, w.Code, w.Body)
			}
			bodies[i], xcache[i] = w.Body.String(), w.Header().Get("X-Cache")
		}()
		if i == 0 {
			waitForWaiter(t, s.cache, key)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the followers park on the call
	close(gate)
	wg.Wait()

	if got := searches.Load(); got != 1 {
		t.Fatalf("%d engine searches for %d identical requests, want 1", got, n)
	}
	var leader string
	for i, b := range bodies {
		if xcache[i] == "MISS" {
			if leader != "" {
				t.Fatal("more than one request missed")
			}
			leader = b
		}
	}
	if !strings.HasSuffix(leader, `"cached":false}}`+"\n") {
		t.Fatalf("no leader body, or it ends unexpectedly: %q", leader)
	}
	want := strings.TrimSuffix(leader, `"cached":false}}`+"\n") + `"cached":true}}` + "\n"
	for i, b := range bodies {
		if xcache[i] == "HIT" && b != want {
			t.Errorf("request %d body differs from the leader's beyond stats.cached:\n got: %s\nwant: %s", i, b, want)
		}
	}
}

// TestResultCacheUnencodableAnswer: an answer encoding/json cannot encode
// (a non-finite score) is the server's fault, a 500 internal, not a 422
// blamed on the query.
func TestResultCacheUnencodableAnswer(t *testing.T) {
	_, err := newSearchAnswer(&wikisearch.Result{Answers: []wikisearch.Answer{{Score: math.NaN()}}})
	if err == nil {
		t.Fatal("a NaN score encoded")
	}
	w := httptest.NewRecorder()
	testServer(t).v1SearchError(w, err)
	var resp V1SearchResponse
	if jerr := json.Unmarshal(w.Body.Bytes(), &resp); jerr != nil || w.Code != http.StatusInternalServerError ||
		resp.Error == nil || resp.Error.Code != "internal" {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
}
