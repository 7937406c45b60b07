package wikisearch

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wikisearch/internal/trace"
)

// TestSearchObserverExactlyOnce: the observer contract — one invocation per
// Search call, no more, no fewer — holds for sequential searches,
// concurrent ones (including identical twins), and error outcomes.
func TestSearchObserverExactlyOnce(t *testing.T) {
	eng := newTestEngine(t)
	var calls atomic.Int64
	eng.SetSearchObserver(func(Query, *Result, error) { calls.Add(1) })

	// Sequential: one call per search, success or error.
	queries := []Query{
		{Text: "xml rdf sql", TopK: 3, Threads: 2},
		{Text: "sparql rdf", TopK: 2, Threads: 2},
		{Text: "xml xpath", TopK: 4, Threads: 2},
		{Text: "sql query language", TopK: 1, Threads: 2},
	}
	for _, q := range queries {
		if _, err := eng.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Search(context.Background(), Query{Text: "zzzznosuchword"}); err == nil {
		t.Fatal("unmatched keyword accepted")
	}
	if got := calls.Load(); got != int64(len(queries))+1 {
		t.Fatalf("sequential: observer fired %d times for %d searches", got, len(queries)+1)
	}

	// Concurrent searches, including an exact twin of queries[0]: every
	// caller observes its own outcome exactly once.
	calls.Store(0)
	work := append(append([]Query(nil), queries...), queries[0])
	var wg sync.WaitGroup
	for _, q := range work {
		wg.Add(1)
		go func(q Query) {
			defer wg.Done()
			if _, err := eng.Search(context.Background(), q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	if got := calls.Load(); got != int64(len(work)) {
		t.Fatalf("concurrent: observer fired %d times for %d searches", got, len(work))
	}
}

// TestSoloTraceCollected: every solo search leaves one assembled trace in
// the collector, linked to the caller's request ID, with the kernel's spans
// and a well-formed tree.
func TestSoloTraceCollected(t *testing.T) {
	eng := newTestEngine(t)
	if !eng.TracingEnabled() {
		t.Fatal("tracing should be on by default")
	}
	ctx := WithRequestID(context.Background(), 42)
	res, err := eng.Search(ctx, Query{Text: "xml rdf sql", TopK: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	qt := eng.Traces().FindRequest(42)
	if qt == nil {
		t.Fatal("no trace collected for request 42")
	}
	if qt.Query != "xml rdf sql" || qt.Variant != "CPU-Par" || qt.TopK != 5 {
		t.Fatalf("trace identity wrong: %+v", qt)
	}
	if qt.Answers != len(res.Answers) {
		t.Fatalf("trace answers = %d, result has %d", qt.Answers, len(res.Answers))
	}
	if len(qt.Events) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[trace.Kind]int{}
	for i := range qt.Events {
		ev := &qt.Events[i]
		if ev.End < ev.Start {
			t.Fatalf("event %v ends before it starts", ev)
		}
		if ev.Start < qt.StartNs {
			t.Fatalf("event %v starts before the query", ev)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindInit, trace.KindBottomUp, trace.KindLevel, trace.KindTopDown} {
		if kinds[k] == 0 {
			t.Fatalf("no %v span recorded (kinds: %v)", k, kinds)
		}
	}
	if qt.PhaseNs(trace.KindBottomUp) <= 0 {
		t.Fatal("bottom-up phase has no duration")
	}
	tree := qt.Tree()
	if tree.Name != "search" || len(tree.Children) == 0 {
		t.Fatalf("malformed tree root: %+v", tree)
	}

	// Disabling tracing stops collection; re-enabling resumes it.
	eng.SetTracing(false)
	before := len(eng.Traces().Recent())
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf"}); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Traces().Recent()); got != before {
		t.Fatalf("tracing disabled but traces grew %d -> %d", before, got)
	}
	eng.SetTracing(true)
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf"}); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Traces().Recent()); got != before+1 {
		t.Fatalf("tracing re-enabled but traces went %d -> %d", before, got)
	}
}

// TestTraceAssemblyConcurrent: a randomized concurrent workload (run under
// -race in CI) always yields well-formed traces — monotone span intervals,
// level spans nested under a bottom-up ancestor, per-level phases nested
// under their level, and no span escaping the synthetic root.
func TestTraceAssemblyConcurrent(t *testing.T) {
	eng := newTestEngine(t)

	var mu sync.Mutex
	var collected []*QueryTrace
	eng.Traces().SetObserver(func(qt *QueryTrace) {
		mu.Lock()
		collected = append(collected, qt)
		mu.Unlock()
	})
	defer eng.Traces().SetObserver(nil)

	pool := []Query{
		{Text: "xml rdf sql", TopK: 3, Threads: 2},
		{Text: "sparql rdf", TopK: 2, Threads: 2},
		{Text: "xml xpath", TopK: 4, Threads: 2},
		{Text: "sql query language", TopK: 1, Threads: 2},
		{Text: "xml rdf sql", TopK: 3, Threads: 2}, // twin of pool[0]
	}
	const clients, iters = 6, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				q := pool[rng.Intn(len(pool))]
				if _, err := eng.Search(context.Background(), q); err != nil {
					t.Error(err)
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(collected) != clients*iters {
		t.Fatalf("collected %d traces for %d searches", len(collected), clients*iters)
	}
	for _, qt := range collected {
		if qt.Err != "" {
			t.Fatalf("trace %d carries error %q", qt.ID, qt.Err)
		}
		for j := range qt.Events {
			ev := &qt.Events[j]
			if ev.End < ev.Start {
				t.Fatalf("trace %d: event %+v ends before it starts", qt.ID, ev)
			}
			if ev.Start < qt.StartNs {
				t.Fatalf("trace %d: event %+v precedes the query start %d", qt.ID, ev, qt.StartNs)
			}
			if j > 0 && ev.Start < qt.Events[j-1].Start {
				t.Fatalf("trace %d: events not sorted by start", qt.ID)
			}
		}
		root := qt.Tree()
		walkSpans(t, qt.ID, root, nil)
	}
}

// walkSpans checks structural invariants of an assembled trace tree:
// children lie within their parent's interval, level spans descend from a
// bottom-up span, and the per-level phases descend from a level span.
func walkSpans(t *testing.T, id uint64, s *TraceSpan, ancestors []*TraceSpan) {
	t.Helper()
	for _, c := range s.Children {
		if c.Start < s.Start || c.Start+c.Dur > s.Start+s.Dur {
			t.Fatalf("trace %d: span %s [%d,+%d] escapes parent %s [%d,+%d]",
				id, c.Name, c.Start, c.Dur, s.Name, s.Start, s.Dur)
		}
	}
	has := func(k trace.Kind) bool {
		for _, a := range ancestors {
			if a.Kind == k {
				return true
			}
		}
		return false
	}
	switch s.Kind {
	case trace.KindLevel:
		if !has(trace.KindBottomUp) {
			t.Fatalf("trace %d: level span with no bottom-up ancestor", id)
		}
	case trace.KindEnqueue, trace.KindIdentify, trace.KindExpand:
		if !has(trace.KindLevel) {
			t.Fatalf("trace %d: %s span with no level ancestor", id, s.Name)
		}
	}
	ancestors = append(ancestors, s)
	for _, c := range s.Children {
		walkSpans(t, id, c, ancestors)
	}
}
