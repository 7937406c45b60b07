package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteSpecGolden pins docs/api.md to the registered mux routes: the
// route table between the routes:begin/end markers must list exactly the
// (method, path, description) triples the server registers. Adding,
// renaming, or removing a handler without updating the spec fails here.
func TestRouteSpecGolden(t *testing.T) {
	spec := filepath.Join("..", "..", "docs", "api.md")
	raw, err := os.ReadFile(spec)
	if err != nil {
		t.Fatalf("route spec missing: %v", err)
	}
	_, rest, found := strings.Cut(string(raw), "<!-- routes:begin")
	if !found {
		t.Fatal("docs/api.md has no routes:begin marker")
	}
	table, _, found := strings.Cut(rest, "<!-- routes:end -->")
	if !found {
		t.Fatal("docs/api.md has no routes:end marker")
	}

	documented := map[string]string{} // "METHOD PATH" -> description
	var order []string
	for _, line := range strings.Split(table, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|--") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			t.Fatalf("route table row needs 3 cells: %q", line)
		}
		method := strings.TrimSpace(cells[0])
		path := strings.TrimSpace(cells[1])
		doc := strings.TrimSpace(cells[2])
		if method == "Method" { // header row
			continue
		}
		key := method + " " + path
		if _, dup := documented[key]; dup {
			t.Fatalf("route %q documented twice", key)
		}
		documented[key] = doc
		order = append(order, key)
	}

	registered := testServer(t).Routes()
	for _, r := range registered {
		key := r.Method + " " + r.Pattern
		doc, ok := documented[key]
		if !ok {
			t.Errorf("route %q is registered but missing from docs/api.md", key)
			continue
		}
		if doc != r.Doc {
			t.Errorf("route %q description drifted:\n  docs/api.md: %q\n  registered:  %q", key, doc, r.Doc)
		}
		delete(documented, key)
	}
	for key := range documented {
		t.Errorf("route %q is documented in docs/api.md but not registered", key)
	}
	if t.Failed() {
		t.Log("update the table between the routes:begin/end markers in docs/api.md to match Server.Routes()")
	}

	// The documented table is sorted like Routes(): by path, then method.
	sorted := append([]string(nil), order...)
	sortRouteKeys(sorted)
	for i := range order {
		if order[i] != sorted[i] {
			t.Fatalf("docs/api.md route table is not sorted by path then method: %q before %q", order[i], sorted[i])
		}
	}
}

func sortRouteKeys(keys []string) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && routeKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func routeKeyLess(a, b string) bool {
	am, ap, _ := strings.Cut(a, " ")
	bm, bp, _ := strings.Cut(b, " ")
	if ap != bp {
		return ap < bp
	}
	return am < bm
}

// TestRoutesServed: every route in the table answers something other than
// the mux's 404, i.e. the table is live.
func TestRoutesServed(t *testing.T) {
	s := testServer(t)
	for _, r := range s.Routes() {
		path := strings.ReplaceAll(r.Pattern, "{$}", "")
		w := get(t, s, path)
		if w.Code == 404 && !strings.HasPrefix(r.Pattern, "/v1/debug") {
			t.Errorf("route %s %s answered 404: %s", r.Method, r.Pattern, w.Body)
		}
	}
	// And an unregistered path still 404s.
	if w := get(t, s, "/nope"); w.Code != 404 {
		t.Errorf("unregistered path answered %d", w.Code)
	}
}

// TestRoutesHonorCancelledContext requests every route with a context
// cancelled before the request arrives, as when the client is already
// gone, through the production middleware chain (deadline, limiter, cache).
// The engine records a trace for every Search call: a search route must
// run exactly one search and it must end in context.Canceled, which shows
// the request's context reached the level loop; any other route must run
// none. A search route answers nothing: /v1/search writes no byte and the
// index page stops after its form. The table names every route, so a new
// route needs a case here.
func TestRoutesHonorCancelledContext(t *testing.T) {
	cases := map[string]struct {
		method, target, body string
		search               bool
	}{
		"GET /v1/search":       {target: "/v1/search?q=xml+rdf+sql", search: true},
		"GET /{$}":             {target: "/?q=xml+rdf+sql", search: true},
		"GET /v1/stats":        {target: "/v1/stats"},
		"GET /metrics":         {target: "/metrics"},
		"GET /v1/debug/traces": {target: "/v1/debug/traces"},
		"GET /v1/debug/trace":  {target: "/v1/debug/trace?id=1"},
		"GET /healthz":         {target: "/healthz"},
		"* /v1/mutate": {method: http.MethodPost, target: "/v1/mutate",
			body: `{"ops":[{"op":"add_node","label":"zorblatt"}]}`},
	}
	for _, r := range testServer(t).Routes() {
		key := r.Method + " " + r.Pattern
		c, ok := cases[key]
		if !ok {
			t.Errorf("route %s has no case", key)
			continue
		}
		delete(cases, key)
		t.Run(key, func(t *testing.T) {
			s := testMutableServer(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			method := c.method
			if method == "" {
				method = http.MethodGet
			}
			req := httptest.NewRequest(method, c.target, strings.NewReader(c.body)).WithContext(ctx)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)

			traces := s.eng.Traces().Recent()
			for _, qt := range traces {
				if !strings.Contains(qt.Err, context.Canceled.Error()) {
					t.Errorf("a search completed under the cancelled request (err %q, %d answers)", qt.Err, qt.Answers)
				}
			}
			switch body := w.Body.String(); {
			case !c.search && len(traces) != 0:
				t.Errorf("route ran %d searches, want none", len(traces))
			case c.search && len(traces) != 1:
				t.Errorf("route ran %d searches, want 1", len(traces))
			case key == "GET /v1/search" && body != "":
				t.Errorf("wrote %q to a cancelled client", body)
			case key == "GET /{$}" && !strings.HasSuffix(body, "</form>"):
				t.Errorf("index page wrote past its form to a cancelled client: %q", body)
			}
		})
	}
	for key := range cases {
		t.Errorf("case %s names no registered route", key)
	}
}
