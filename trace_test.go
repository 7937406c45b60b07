package wikisearch

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wikisearch/internal/core"
	"wikisearch/internal/trace"
)

// TestTraceExactlyOnce: the trace contract — one trace per Search call, no
// more, no fewer — holds for sequential searches, concurrent ones
// (including identical twins), and error outcomes, which carry Err and no
// events. The serving layer's metrics are folded from these traces.
func TestTraceExactlyOnce(t *testing.T) {
	eng := newTestEngine(t)
	var traces atomic.Int64
	eng.Traces().SetObserver(func(*QueryTrace) { traces.Add(1) })

	// Sequential: one trace per search, success or error.
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
	for _, q := range []Query{
		{Text: "zzzznosuchword"},     // fails in prepare
		{Text: "xml rdf", TopK: 999}, // fails in Validate
	} {
		if _, err := eng.Search(context.Background(), q); err == nil {
			t.Fatalf("%+v accepted", q)
		}
		qt := eng.Traces().Recent()[0]
		if qt.Err == "" || len(qt.Events) != 0 || qt.Duration <= 0 {
			t.Fatalf("%+v: trace err=%q events=%d duration=%v; want an error, no events, a duration",
				q, qt.Err, len(qt.Events), qt.Duration)
		}
	}
	if got, want := traces.Load(), int64(len(queries))+2; got != want {
		t.Fatalf("sequential: %d traces for %d searches", got, want)
	}

	// Concurrent searches, including an exact twin of queries[0]: every
	// caller leaves its own trace exactly once.
	traces.Store(0)
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
	if got := traces.Load(); got != int64(len(work)) {
		t.Fatalf("concurrent: %d traces for %d searches", got, len(work))
	}
}

// TestTracePhasesMatchProfile: the serving layer's phase histograms are
// span sums, so on a search that runs every default level no event may be
// lost to ring overflow, and each phase's span sum must equal the
// profile's phase time — and their total Result.Total — to the nanosecond.
func TestTracePhasesMatchProfile(t *testing.T) {
	const n = 400 // keywords at the two ends: no Central Node within 32 levels
	b := NewBuilder()
	for i := 0; i < n; i++ {
		label := "link"
		switch i {
		case 0:
			label = "alpha"
		case n - 1:
			label = "omega"
		}
		b.AddNode(label, "")
	}
	for i := 1; i < n; i++ {
		b.AddEdgeNamed(NodeID(i-1), NodeID(i), "next")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineOptions{Threads: 2, DistanceSamplePairs: 200})
	if err != nil {
		t.Fatal(err)
	}
	phases := map[trace.Kind]core.Phase{
		trace.KindInit:     core.PhaseInit,
		trace.KindEnqueue:  core.PhaseEnqueue,
		trace.KindIdentify: core.PhaseIdentify,
		trace.KindExpand:   core.PhaseExpand,
		trace.KindTopDown:  core.PhaseTopDown,
	}
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		res, err := eng.Search(context.Background(), Query{Text: "alpha omega", TopK: 200, Threads: threads, DisableActivation: true})
		if err != nil {
			t.Fatal(err)
		}
		qt := eng.Traces().Recent()[0]
		levels := 0
		for i := range qt.Events {
			if qt.Events[i].Kind == trace.KindLevel {
				levels++
			}
		}
		if res.Depth != 32 || levels != 33 {
			t.Fatalf("Tnum %d: depth %d with %d level spans; want all 32 default levels run", threads, res.Depth, levels)
		}
		if qt.Dropped != 0 {
			t.Fatalf("Tnum %d: %d events dropped", threads, qt.Dropped)
		}
		ns := qt.SpanNs()
		var total time.Duration
		for k, ph := range phases {
			got := time.Duration(ns[k])
			if want := res.Phases[ph.String()]; got != want {
				t.Errorf("Tnum %d: %v spans sum to %v; profile says %v", threads, k, got, want)
			}
			total += got
		}
		if total != res.Total {
			t.Errorf("Tnum %d: phase spans sum to %v; Result.Total is %v", threads, total, res.Total)
		}
	}
}

// TestSoloTraceCollected: every solo search leaves one assembled trace in
// the collector, linked to the caller's request ID, with the kernel's spans
// and a well-formed tree.
func TestSoloTraceCollected(t *testing.T) {
	eng := newTestEngine(t)
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
	if qt.SpanNs()[trace.KindBottomUp] <= 0 {
		t.Fatal("bottom-up phase has no duration")
	}
	tree := qt.Tree()
	if tree.Name != "search" || len(tree.Children) == 0 {
		t.Fatalf("malformed tree root: %+v", tree)
	}
}

// TestTraceAssemblyConcurrent: a randomized concurrent workload (run under
// -race in CI) always yields well-formed traces — monotone span intervals,
// level spans nested under a bottom-up ancestor, per-level phases nested
// under their level, and no span escaping the synthetic root — and each
// pool helper records into its own ring (checkPoolLanes). The Tnum 4
// queries put up to three helpers in one phase, so under -race two
// helpers writing one ring is a reported race.
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
		{Text: "xml rdf sql", TopK: 3, Threads: 4},
		{Text: "sql query language", TopK: 4, Threads: 4},
		{Text: "sparql rdf xml", TopK: 2, Threads: 4},
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
	widest := 0
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
		if n := checkPoolLanes(t, qt, 4); n > widest {
			widest = n
		}
	}
	if widest < 2 {
		t.Fatalf("no pool phase woke two helpers; the widest woke %d", widest)
	}
}

// checkPoolLanes checks the pool's spans in one trace against the rule that
// each worker records only into its own ring. The coordinator records its
// own work (B = helpers woken) and its join in lane 0; each helper records
// one work span (B = 0) per phase token it took, in its own lane in
// [1, tnum). A phase is closed by its join span, and its helpers' spans end
// before the join does, so a helper span belongs to the first join that ends
// after it: each phase must hold exactly as many helper spans as it woke
// helpers. One lane is one goroutine, so its work spans never overlap in
// time. (A helper that finishes early may take a second token of the same
// phase, so two helper spans of one phase can share a lane — one after the
// other, never at once.) It returns the most helpers any phase woke.
func checkPoolLanes(t *testing.T, qt *QueryTrace, tnum int) int {
	t.Helper()
	var joins, helpers []trace.Event
	lastEnd := map[uint8]int64{}
	for _, ev := range qt.Events { // sorted by start
		switch {
		case ev.Kind == trace.KindPoolJoin:
			if ev.Worker != 0 {
				t.Fatalf("trace %d: pool join recorded in lane %d, not the coordinator's", qt.ID, ev.Worker)
			}
			joins = append(joins, ev)
			continue
		case ev.Kind != trace.KindPoolWork:
			continue
		case ev.B > 0 && ev.Worker != 0:
			t.Fatalf("trace %d: coordinator work recorded in lane %d", qt.ID, ev.Worker)
		case ev.B == 0 && (ev.Worker == 0 || int(ev.Worker) >= tnum):
			t.Fatalf("trace %d: helper work recorded in lane %d, outside [1,%d)", qt.ID, ev.Worker, tnum)
		case ev.B == 0:
			helpers = append(helpers, ev)
		}
		if end, ok := lastEnd[ev.Worker]; ok && ev.Start < end {
			t.Fatalf("trace %d: lane %d holds two work spans at once", qt.ID, ev.Worker)
		}
		lastEnd[ev.Worker] = ev.End
	}
	sort.Slice(joins, func(i, j int) bool { return joins[i].End < joins[j].End })
	woken := make([]int64, len(joins))
	for _, h := range helpers {
		p := sort.Search(len(joins), func(i int) bool { return joins[i].End >= h.End })
		if p == len(joins) {
			t.Fatalf("trace %d: helper span in lane %d ends after the last join", qt.ID, h.Worker)
		}
		woken[p]++
	}
	widest := 0
	for i, j := range joins {
		if woken[i] != j.B {
			t.Fatalf("trace %d: a phase woke %d helpers and holds %d helper spans", qt.ID, j.B, woken[i])
		}
		widest = max(widest, int(j.B))
	}
	return widest
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
