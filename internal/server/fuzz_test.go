package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"wikisearch"
)

// FuzzV1Mutate sends arbitrary bodies through POST /v1/mutate on a fresh
// mutable test server: whatever the body, the answer is a client error or
// a success, never a 5xx. Seeds cover a valid batch, each error class, and
// node ids past the graph and past int32.
func FuzzV1Mutate(f *testing.F) {
	for _, seed := range []string{
		`{"ops": [{"op": "add_node", "label": "GraphQL", "desc": "API query language"},
			{"op": "add_edge", "from": 5, "to": 1, "rel": "instance of"},
			{"op": "set_keywords", "node": 3, "label": "RDF", "desc": "triples"},
			{"op": "reweight", "node": 1, "weight": 0.5}]}`,
		`{"ops": [{"op": "remove_edge", "from": 0, "to": 1, "rel": "instance of"}], "publish": false}`,
		`{"ops": [{"op": "remove_edge", "from": 0, "to": 3, "rel": "designed for"}]}`,
		`{"ops": [{"op": "reweight", "node": 1, "weight": 7}]}`,
		`{"ops": [{"op": "set_keywords", "node": 999999}]}`,
		`{"ops": [{"op": "add_edge", "from": 4294967296, "to": 1, "rel": "instance of"}]}`,
		`{"ops": [{"op": "set_keywords", "node": 2147483648}]}`,
		`{"ops": [{"op": "summon"}]}`,
		`{"ops": []}`,
		`not json`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s := testMutableServer(t)
		if w := post(t, s, "/v1/mutate", body); w.Code >= 500 {
			t.Fatalf("%q: status %d body %s", body, w.Code, w.Body)
		}
	})
}

// FuzzSearchParams sends arbitrary raw query strings through the search
// parameter parser: it never panics, a rejection carries no query, and an
// accepted query is one the engine accepts with every knob explicit and in
// range.
func FuzzSearchParams(f *testing.F) {
	for _, seed := range []string{
		"q=sql+rdf&k=5",
		"q=sql&k=abc",
		"q=sql&k=0",
		"q=sql&alpha=NaN&lambda=Inf",
		"q=sql&alpha=0.5&lambda=1&variant=cpu-d",
		"q=%zz&k=-1",
		"q=sql&variant=quantum",
		"k=5",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/search", nil)
		r.URL.RawQuery = raw
		q, msg := parseSearchQuery(r)
		if msg != "" {
			if q != (wikisearch.Query{}) {
				t.Fatalf("%q: rejected (%s) but returned %+v", raw, msg, q)
			}
			return
		}
		if q.Text == "" || q.TopK < 1 || q.Alpha <= 0 || q.Lambda <= 0 {
			t.Fatalf("%q: accepted a query with a defaulted or empty knob: %+v", raw, q)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("%q: accepted a query the engine rejects: %v", raw, err)
		}
	})
}
