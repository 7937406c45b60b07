package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wikisearch"
	"wikisearch/internal/graph"
)

// testMutableServer builds a server with live mutation enabled. The test's
// cleanup closes the server and its engine, and then checks that no
// goroutine either started is left.
func testMutableServer(t testing.TB) *Server {
	t.Helper()
	checkNoLeak(t)
	s := testServer(t)
	if err := s.EnableMutation(wikisearch.MutatorOptions{CompactAfterOps: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		if err := s.eng.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func post(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestV1MutateGolden pins the /v1/mutate envelope: success with assigned
// node ids, and every error shape with its status and stable code.
func TestV1MutateGolden(t *testing.T) {
	s := testMutableServer(t)
	w := post(t, s, "/v1/mutate", `{"ops": [
		{"op": "add_node", "label": "GraphQL", "desc": "API query language"},
		{"op": "add_edge", "from": 5, "to": 1, "rel": "instance of"},
		{"op": "set_keywords", "node": 3, "label": "RDF", "desc": "triple store data model"},
		{"op": "reweight", "node": 1, "weight": 0.5}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_mutate.json", normalizeJSON(t, w.Body.Bytes(), "publish_ms"))

	// Error envelopes are deterministic; no normalization.
	w = post(t, s, "/v1/mutate", `{"ops": [{"op": "summon", "label": "x"}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown op status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_mutate_bad_request.json", w.Body.Bytes())

	w = post(t, s, "/v1/mutate", `{"ops": [{"op": "remove_edge", "from": 0, "to": 3, "rel": "designed for"}]}`)
	if w.Code != http.StatusConflict {
		t.Fatalf("absent-edge status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_mutate_conflict.json", w.Body.Bytes())

	w = get(t, s, "/v1/mutate")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d body %s", w.Code, w.Body)
	}
	if w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", w.Header().Get("Allow"))
	}
	checkGolden(t, "v1_mutate_method.json", w.Body.Bytes())
}

// TestV1MutateReadOnly: without EnableMutation the endpoint exists but
// answers 409 read_only.
func TestV1MutateReadOnly(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/mutate", `{"ops": [{"op": "add_node", "label": "x"}]}`)
	if w.Code != http.StatusConflict {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	checkGolden(t, "v1_mutate_read_only.json", w.Body.Bytes())
}

// TestV1MutateErrorStatuses walks the documented status mapping.
func TestV1MutateErrorStatuses(t *testing.T) {
	s := testMutableServer(t)
	cases := []struct {
		body string
		code int
		ec   string
	}{
		{`not json`, http.StatusBadRequest, "bad_request"},
		{`{}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": []}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": ""}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "add_edge", "from": 0}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "add_edge", "from": -1, "to": 0, "rel": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "reweight", "node": 1}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "add_edge", "from": 999, "to": 0, "rel": "x"}]}`, http.StatusUnprocessableEntity, "unprocessable"},
		{`{"ops": [{"op": "reweight", "node": 1, "weight": 7}]}`, http.StatusUnprocessableEntity, "unprocessable"},
		{`{"ops": [{"op": "remove_edge", "from": 0, "to": 2, "rel": "instance of"}]}`, http.StatusConflict, "conflict"},
		// A node past the graph is rejected like any other bad id; ids past
		// int32 are malformed rather than wrapped into another node's id.
		{`{"ops": [{"op": "set_keywords", "node": 999999, "label": "x"}]}`, http.StatusUnprocessableEntity, "unprocessable"},
		{`{"ops": [{"op": "add_edge", "from": 4294967296, "to": 1, "rel": "instance of"}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "remove_edge", "from": 0, "to": 4294967297, "rel": "instance of"}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "set_keywords", "node": 2147483648, "label": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{`{"ops": [{"op": "reweight", "node": 4294967297, "weight": 0.5}]}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		w := post(t, s, "/v1/mutate", c.body)
		if w.Code != c.code {
			t.Errorf("%s: status = %d, want %d (body %s)", c.body, w.Code, c.code, w.Body)
			continue
		}
		var resp V1SearchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Errorf("%s: invalid JSON: %v", c.body, err)
			continue
		}
		if resp.Error == nil || resp.Error.Code != c.ec || resp.Error.Message == "" {
			t.Errorf("%s: error block = %+v, want code %q", c.body, resp.Error, c.ec)
		}
	}
}

// TestV1MutateVisibleToSearch: a published mutation is served by the very
// next search — including through the result cache, which every publish
// purges.
func TestV1MutateVisibleToSearch(t *testing.T) {
	s := testMutableServer(t)
	if w := get(t, s, "/v1/search?q=sparql+rdf"); w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first search X-Cache = %q", w.Header().Get("X-Cache"))
	}
	if w := get(t, s, "/v1/search?q=sparql+rdf"); w.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat search X-Cache = %q", w.Header().Get("X-Cache"))
	}

	w := post(t, s, "/v1/mutate", `{"ops": [
		{"op": "add_node", "label": "Cypher", "desc": "graph query language"},
		{"op": "add_edge", "from": 5, "to": 1, "rel": "instance of"}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate status = %d body %s", w.Code, w.Body)
	}
	var mr struct {
		Results []V1MutateResult `json:"results"`
		Stats   *V1MutateStats   `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Results) != 2 || mr.Results[0].Node == nil || *mr.Results[0].Node != 5 {
		t.Fatalf("results = %+v", mr.Results)
	}
	if mr.Stats == nil || !mr.Stats.Published || mr.Stats.Epoch != 2 {
		t.Fatalf("stats = %+v", mr.Stats)
	}

	// Publish purged the cache: the identical query re-runs the engine.
	if w := get(t, s, "/v1/search?q=sparql+rdf"); w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("post-publish search X-Cache = %q", w.Header().Get("X-Cache"))
	}
	w = get(t, s, "/v1/search?q=cypher+graph")
	if w.Code != http.StatusOK {
		t.Fatalf("search status = %d body %s", w.Code, w.Body)
	}
	var sr V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("mutated node not found: %s", w.Body)
	}
}

// TestV1MutateDeferredPublish: publish=false accumulates invisibly; the
// pending ops show in /v1/stats and ride with the next publishing batch.
func TestV1MutateDeferredPublish(t *testing.T) {
	s := testMutableServer(t)
	w := post(t, s, "/v1/mutate", `{"ops": [{"op": "add_node", "label": "Datalog", "desc": "deductive query language"}], "publish": false}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	var mr struct {
		Stats *V1MutateStats `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Stats.Published || mr.Stats.Epoch != 1 || mr.Stats.PendingOps != 1 {
		t.Fatalf("stats = %+v", mr.Stats)
	}
	if w := get(t, s, "/v1/search?q=datalog+deductive"); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unpublished node visible: %d %s", w.Code, w.Body)
	}

	var st struct {
		Stats *StatsResponse `json:"stats"`
	}
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Epoch != 1 || st.Stats.Mutation == nil || st.Stats.Mutation.PendingOps != 1 {
		t.Fatalf("stats = %+v mutation = %+v", st.Stats, st.Stats.Mutation)
	}

	w = post(t, s, "/v1/mutate", `{"ops": [{"op": "add_edge", "from": 5, "to": 1, "rel": "instance of"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/search?q=datalog+deductive"); w.Code != http.StatusOK {
		t.Fatalf("published node not visible: %d %s", w.Code, w.Body)
	}
}

// TestMutateMetrics: publishes feed the counters and the epoch and delta
// gauges refresh on scrape.
func TestMutateMetrics(t *testing.T) {
	s := testMutableServer(t)
	if w := post(t, s, "/v1/mutate", `{"ops": [{"op": "add_node", "label": "Gremlin", "desc": "graph traversal language"}]}`); w.Code != http.StatusOK {
		t.Fatalf("mutate status = %d body %s", w.Code, w.Body)
	}
	out := get(t, s, "/metrics").Body.String()
	for _, line := range []string{
		"wikisearch_epoch 2",
		"wikisearch_publishes_total 1",
		"wikisearch_delta_nodes 1",
		"wikisearch_publish_seconds_count 1",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", out)
	}
}

// TestV1MutateRelationLimit: on a graph that already names the most
// relation types a relation id holds, an edge under a new relation name is
// refused as unprocessable (422), naming the limit, while edges under the
// existing names still apply.
func TestV1MutateRelationLimit(t *testing.T) {
	checkNoLeak(t)
	b := wikisearch.NewBuilder()
	sql := b.AddNode("SQL", "query language")
	hub := b.AddNode("Query language", "")
	b.AddEdgeNamed(sql, hub, "instance of")
	for r := 1; r < graph.MaxRels; r++ {
		b.Rel(fmt.Sprintf("r%d", r))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{DistanceSamplePairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, quietConfig())
	if err := s.EnableMutation(wikisearch.MutatorOptions{CompactAfterOps: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		eng.Close()
	})

	w := post(t, s, "/v1/mutate", `{"ops": [{"op": "add_edge", "from": 1, "to": 0, "rel": "new relation"}]}`)
	var resp V1SearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusUnprocessableEntity || resp.Error == nil || resp.Error.Code != "unprocessable" ||
		!strings.Contains(resp.Error.Message, "limit of 65535 relation types") {
		t.Fatalf("status %d, body %s: want 422 naming the relation type limit", w.Code, w.Body)
	}
	if w := post(t, s, "/v1/mutate", `{"ops": [{"op": "add_edge", "from": 1, "to": 0, "rel": "r65534"}]}`); w.Code != http.StatusOK {
		t.Fatalf("edge under an existing relation: status %d, body %s", w.Code, w.Body)
	}
	if got := eng.Graph().NumRels(); got != graph.MaxRels {
		t.Fatalf("NumRels = %d after the refused relation, want %d", got, graph.MaxRels)
	}
}
