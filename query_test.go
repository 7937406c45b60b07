package wikisearch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// sameResult compares the query-visible parts of two results, ignoring
// timing (Phases, Total).
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Terms, b.Terms) {
		t.Fatalf("%s: terms %v vs %v", label, a.Terms, b.Terms)
	}
	if a.Depth != b.Depth || a.Candidates != b.Candidates {
		t.Fatalf("%s: depth/candidates %d/%d vs %d/%d", label, a.Depth, a.Candidates, b.Depth, b.Candidates)
	}
	if !reflect.DeepEqual(a.Answers, b.Answers) {
		t.Fatalf("%s: answers differ:\n%+v\n%+v", label, a.Answers, b.Answers)
	}
}

// TestEngineConcurrentEquivalence: concurrent searches on one engine —
// distinct queries with varied k and α, and several copies of the same
// query at once — return exactly what they return one at a time, round
// after round of pooled search-state reuse.
func TestEngineConcurrentEquivalence(t *testing.T) {
	eng := newTestEngine(t)
	distinct := []Query{
		{Text: "xml rdf sql", TopK: 3, Threads: 2},
		{Text: "sparql rdf", TopK: 2, Threads: 2},
		{Text: "xml xpath", TopK: 4, Threads: 2},
		{Text: "sql query language", TopK: 1, Threads: 2},
		{Text: "xml rdf sql", TopK: 2, Threads: 2, Alpha: 0.5},
		{Text: "sparql rdf", TopK: 2, Variant: Sequential},
	}
	// Every distinct query once, plus four more copies of the first two, so
	// identical searches run side by side.
	order := []int{0, 1, 2, 3, 4, 5, 0, 1, 0, 1, 0, 1, 0, 1}
	refs := make([]*Result, len(distinct))
	for i, q := range distinct {
		r, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	for round := 0; round < 3; round++ {
		got := make([]*Result, len(order))
		errs := make([]error, len(order))
		var wg sync.WaitGroup
		for i, qi := range order {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				got[i], errs[i] = eng.Search(context.Background(), q)
			}(i, distinct[qi])
		}
		wg.Wait()
		for i, qi := range order {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameResult(t, fmt.Sprintf("round %d search %d (query %d)", round, i, qi), refs[qi], got[i])
		}
	}
}

// TestQueryValidate exercises the shared knob bounds.
func TestQueryValidate(t *testing.T) {
	valid := []Query{
		{},
		{TopK: 1, Alpha: 0.01, Lambda: 1, MaxLevel: 250},
		{TopK: 200, Variant: Sequential},
	}
	for i, q := range valid {
		if err := q.Validate(); err != nil {
			t.Errorf("valid query %d rejected: %v", i, err)
		}
	}
	invalid := map[string]Query{
		"k low":       {TopK: -1},
		"k high":      {TopK: 201},
		"alpha low":   {Alpha: -0.1},
		"alpha high":  {Alpha: 1},
		"alpha NaN":   {Alpha: math.NaN()},
		"lambda low":  {Lambda: -0.5},
		"lambda high": {Lambda: 1.5},
		"lambda NaN":  {Lambda: math.NaN()},
		"maxlevel":    {MaxLevel: 251},
		"variant":     {Variant: Variant(99)},
	}
	for name, q := range invalid {
		if err := q.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
