package wikisearch

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wikisearch/internal/core"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
)

// paperGraph builds the Fig. 1 scenario: query languages around a "Query
// language" hub, keywords XML / RDF / SQL.
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	fql := b.AddNode("Facebook Query Language", "")
	sql := b.AddNode("SQL", "query language for relational databases")
	hub := b.AddNode("Query language", "")
	sparql := b.AddNode("SPARQL query language for RDF", "")
	s11 := b.AddNode("SPARQL 1.1", "")
	rdfql := b.AddNode("RDF query language", "")
	xquery := b.AddNode("XQuery", "XML query language")
	xpath3 := b.AddNode("XPath 3", "")
	xpath := b.AddNode("XPath", "XML path language")
	xpath2 := b.AddNode("XPath 2", "")
	b.AddEdgeNamed(fql, hub, "instance of")
	b.AddEdgeNamed(sql, hub, "instance of")
	b.AddEdgeNamed(sparql, hub, "instance of")
	b.AddEdgeNamed(s11, sparql, "version of")
	b.AddEdgeNamed(rdfql, sparql, "related to")
	b.AddEdgeNamed(rdfql, hub, "instance of")
	b.AddEdgeNamed(xquery, hub, "instance of")
	b.AddEdgeNamed(xpath3, xquery, "related to")
	b.AddEdgeNamed(xpath, xquery, "related to")
	b.AddEdgeNamed(xpath, hub, "instance of")
	b.AddEdgeNamed(xpath2, xpath, "version of")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := NewEngine(paperGraph(t), EngineOptions{Threads: 2, DistanceSamplePairs: 200})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestVariantStrings(t *testing.T) {
	cases := map[Variant]string{
		CPUPar:      "CPU-Par",
		Sequential:  "Sequential",
		CPUParD:     "CPU-Par-d",
		GPUPar:      "GPU-Par",
		Variant(42): "Unknown",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestAnswerNodeIDsAndDeviation(t *testing.T) {
	eng := newTestEngine(t)
	if eng.DistanceDeviation() < 0 {
		t.Fatal("negative deviation")
	}
	res, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := res.Answers[0].NodeIDs()
	if len(ids) != len(res.Answers[0].Nodes) {
		t.Fatal("NodeIDs length mismatch")
	}
	for i, n := range res.Answers[0].Nodes {
		if ids[i] != n.ID {
			t.Fatal("NodeIDs order mismatch")
		}
	}
}

func TestLoadEngineErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadEngine(filepath.Join(dir, "missing.wskb"), EngineOptions{}); err == nil {
		t.Fatal("missing dump accepted")
	}
	// A dump must carry the index and a positive A; only A can be supplied
	// by the caller instead.
	src := newTestEngine(t)
	full := storage.Dump{Name: "fig1", Graph: src.Graph(), Weights: src.Weights(), AvgDist: 3, Index: text.BuildIndex(src.Graph())}
	noIndex, noDist := full, full
	noIndex.Index, noDist.AvgDist = nil, 0
	for name, c := range map[string]struct {
		d    *storage.Dump
		o    EngineOptions
		want string // error substring; empty when the load must succeed
	}{
		"no index":          {&noIndex, EngineOptions{AvgDistance: 3}, "no keyword index"},
		"no distance":       {&noDist, EngineOptions{}, "no positive average distance"},
		"distance override": {&noDist, EngineOptions{AvgDistance: 3}, ""},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".wskb")
		if err := storage.SaveDumpFileV3(path, c.d); err != nil {
			t.Fatal(err)
		}
		eng, err := LoadEngine(path, c.o)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.want == "" && eng.AvgDistance() != 3:
			t.Errorf("%s: A = %v", name, eng.AvgDistance())
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
		if eng != nil {
			eng.Close()
		}
	}
	// NewEngine rejects a nil graph.
	if _, err := NewEngine(nil, EngineOptions{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestEngineBasics(t *testing.T) {
	eng := newTestEngine(t)
	if eng.Graph().NumNodes() != 10 {
		t.Fatalf("nodes = %d", eng.Graph().NumNodes())
	}
	if eng.AvgDistance() <= 0 {
		t.Fatal("AvgDistance not sampled")
	}
	if eng.VocabSize() == 0 {
		t.Fatal("empty vocabulary")
	}
	if eng.KeywordFrequency("sparql") != 2 {
		t.Fatalf("kwf(sparql) = %d, want 2", eng.KeywordFrequency("sparql"))
	}
	if w := eng.Weight(2); w <= 0 { // the hub has the most same-label in-edges
		t.Fatalf("hub weight = %v, want > 0", w)
	}
	if len(eng.Weights()) != 10 {
		t.Fatal("Weights length")
	}
}

func TestSearchFig1Scenario(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.Search(context.Background(), Query{Text: "XML RDF SQL", TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Terms) != 3 {
		t.Fatalf("terms = %v", res.Terms)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	a := res.Answers[0]
	if a.CentralLabel == "" || a.Score < 0 || len(a.Nodes) == 0 {
		t.Fatalf("answer malformed: %+v", a)
	}
	// The best answer must cover all three keywords.
	seen := map[string]bool{}
	for _, n := range a.Nodes {
		for _, kw := range n.Keywords {
			seen[kw] = true
		}
	}
	for _, term := range res.Terms {
		if !seen[term] {
			t.Fatalf("keyword %q not covered by best answer", term)
		}
	}
	// Graph-shaped answers: the RDF keyword may be contributed by more than
	// one node (multi-path, §I's Fig. 1 motivation).
	if res.Total <= 0 || len(res.Phases) != 5 {
		t.Fatalf("profile missing: total=%v phases=%v", res.Total, res.Phases)
	}
	// Exactly the paper's five phases (Fig. 6/7 panels), nothing else.
	for _, name := range []string{"Initialization", "Enqueuing Frontiers", "Identifying Central Nodes", "Expansion", "Top-down Processing"} {
		if _, ok := res.Phases[name]; !ok {
			t.Fatalf("phase %q missing: %v", name, res.Phases)
		}
	}
	if a.Nodes[0].IsCentral != true {
		t.Fatal("first node must be the central node")
	}
}

func TestSearchVariantsAgree(t *testing.T) {
	eng := newTestEngine(t)
	base, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5, Variant: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{CPUPar, CPUParD, GPUPar} {
		res, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Answers) != len(base.Answers) {
			t.Fatalf("%v: %d answers vs %d", v, len(res.Answers), len(base.Answers))
		}
		for i := range res.Answers {
			if res.Answers[i].Central != base.Answers[i].Central ||
				res.Answers[i].Score != base.Answers[i].Score {
				t.Fatalf("%v: answer %d differs", v, i)
			}
		}
		if v == GPUPar && res.TransferSeconds <= 0 {
			t.Fatal("GPU variant must report transfer time")
		}
	}
}

func TestEngineStatePoolReuse(t *testing.T) {
	eng := newTestEngine(t)
	var first *Result
	const runs = 10
	for i := 0; i < runs; i++ {
		res, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if len(res.Answers) != len(first.Answers) {
			t.Fatalf("run %d: %d answers vs %d", i, len(res.Answers), len(first.Answers))
		}
		for j := range res.Answers {
			if res.Answers[j].Central != first.Answers[j].Central ||
				res.Answers[j].Score != first.Answers[j].Score {
				t.Fatalf("run %d: answer %d differs on reused state", i, j)
			}
		}
	}
	created, reused := eng.SearchStateStats()
	if created+reused != runs {
		t.Fatalf("state stats: created %d + reused %d != %d searches", created, reused, runs)
	}
	if reused == 0 {
		t.Fatal("sequential searches never reused a pooled state")
	}
}

// idleStates is the number of search states the engine's free list holds.
func (e *Engine) idleStates() int {
	e.statesMu.Lock()
	defer e.statesMu.Unlock()
	return len(e.states)
}

// waitGoroutines polls until at most limit goroutines run: a closed worker
// pool's helpers exit asynchronously, so the count settles shortly after.
func waitGoroutines(t *testing.T, limit int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want ≤ %d", what, runtime.NumGoroutine(), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once the helpers of pools
// closed earlier have finished exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
}

// TestEngineStateRetentionBounded: rounds of 4×GOMAXPROCS concurrent
// searches leave at most GOMAXPROCS idle states behind, every search is
// counted as exactly one create or reuse, the worker goroutines of the
// states the free list turned away stop at once — the
// count does not grow across rounds — and Close stops the rest, all without
// a GC run to trigger finalizers. Each client first searches on a state it
// holds until every client holds one, so a round really needs 4×GOMAXPROCS
// states at once, then searches once more through Engine.Search.
func TestEngineStateRetentionBounded(t *testing.T) {
	eng := newTestEngine(t)
	procs := runtime.GOMAXPROCS(0)
	clients := 4 * procs
	const rounds, threads = 10, 2
	q := Query{Text: "xml rdf sql", TopK: 5, Threads: threads}
	in, _, err := eng.snap().prepare(q.Text)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{TopK: q.TopK, AvgDist: eng.AvgDistance(), Threads: threads}.Defaults()
	in.Levels = eng.activationLevels(p.Alpha, p.Threads)
	base := settledGoroutines()
	// Each idle state parks threads−1 pool helpers.
	bound := base + procs*(threads-1)
	for r := 0; r < rounds; r++ {
		var held, wg sync.WaitGroup
		held.Add(clients)
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := eng.acquireState()
				held.Done()
				<-start
				_, err := st.Search(in, p)
				eng.releaseState(st)
				if err == nil {
					_, err = eng.Search(context.Background(), q)
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		held.Wait()
		close(start)
		wg.Wait()
		if idle := eng.idleStates(); idle > procs {
			t.Fatalf("round %d: %d idle states retained, want ≤ GOMAXPROCS = %d", r, idle, procs)
		}
		waitGoroutines(t, bound, fmt.Sprintf("round %d", r))
	}
	created, reused := eng.SearchStateStats()
	if searches := int64(2 * rounds * clients); created+reused != searches {
		t.Fatalf("state stats: created %d + reused %d != %d searches", created, reused, searches)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if idle := eng.idleStates(); idle != 0 {
		t.Fatalf("%d idle states survive Close", idle)
	}
	waitGoroutines(t, base, "after Close")
}

// TestEngineCloseStopsStateReuse: an in-memory engine keeps answering after
// Close, identically, but no longer retains the states its searches use.
func TestEngineCloseStopsStateReuse(t *testing.T) {
	eng := newTestEngine(t)
	q := Query{Text: "xml rdf sql", TopK: 5}
	want, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%d answers after Close, %d before", len(got.Answers), len(want.Answers))
	}
	for i := range got.Answers {
		if got.Answers[i].Central != want.Answers[i].Central || got.Answers[i].Score != want.Answers[i].Score {
			t.Fatalf("answer %d differs after Close", i)
		}
	}
	if idle := eng.idleStates(); idle != 0 {
		t.Fatalf("closed engine retained %d states", idle)
	}
}

// TestWarmEngineKernelAllocationFree guards the steady-state serving path:
// on a warm engine, the kernel stages of a pooled search state (parameter
// resolution, state reset, bottom-up search) allocate nothing. Only answer
// materialization in the top-down stage may allocate.
func TestWarmEngineKernelAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	eng := newTestEngine(t)
	q := Query{Text: "xml rdf sql", TopK: 5, Threads: 4}
	for i := 0; i < 3; i++ { // warm: level cache, state pool, buffer caps
		if _, err := eng.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	in, _, err := eng.snap().prepare(q.Text)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{TopK: q.TopK, AvgDist: eng.AvgDistance(), Threads: q.Threads}.Defaults()
	in.Levels = eng.activationLevels(p.Alpha, p.Threads)
	st := eng.acquireState()
	defer eng.releaseState(st)
	// Tracing on (the engine's always-on default): span recording is part
	// of the guarded kernel path.
	st.SetTracing(true)
	if _, err := st.BottomUp(in, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.BottomUp(in, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm kernel path allocates %.1f times per query, want 0", allocs)
	}
}

func TestSearchErrors(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Search(context.Background(), Query{Text: ""}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.Search(context.Background(), Query{Text: "the of and"}); err == nil {
		t.Fatal("stopword-only query accepted")
	}
	if _, err := eng.Search(context.Background(), Query{Text: "zzzzunknownword"}); err == nil {
		t.Fatal("unmatched keyword accepted")
	}
	if _, err := eng.Search(context.Background(), Query{Text: "xml", Variant: Variant(99)}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	long := strings.Repeat("word ", 70)
	if _, err := eng.Search(context.Background(), Query{Text: long}); err == nil {
		t.Fatal("over-long query accepted")
	}
}

func TestEngineSaveLoad(t *testing.T) {
	eng := newTestEngine(t)
	eng.SetName("fig1")
	path := filepath.Join(t.TempDir(), "fig1.wskb")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	eng2, err := LoadEngine(path, EngineOptions{AvgDistance: eng.AvgDistance()})
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Name() != "fig1" {
		t.Fatalf("name = %q", eng2.Name())
	}
	a, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", Variant: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng2.Search(context.Background(), Query{Text: "xml rdf sql", Variant: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != len(b.Answers) || a.Answers[0].Central != b.Answers[0].Central {
		t.Fatal("reloaded engine answers differ")
	}
}

func TestSearchBANKS(t *testing.T) {
	eng := newTestEngine(t)
	for _, bidi := range []bool{false, true} {
		full, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5, Variant: BANKS, Bidirectional: bidi})
		if err != nil {
			t.Fatal(err)
		}
		res := full.Banks
		if len(res.Trees) == 0 {
			t.Fatalf("bidi=%v: no trees", bidi)
		}
		if res.Trees[0].RootLabel == "" || res.Visited == 0 {
			t.Fatalf("bidi=%v: malformed result", bidi)
		}
		if len(res.Trees[0].Paths) != 3 {
			t.Fatalf("bidi=%v: %d paths, want 3", bidi, len(res.Trees[0].Paths))
		}
	}
	if _, err := eng.Search(context.Background(), Query{Text: "", TopK: 5, Variant: BANKS, Bidirectional: true}); err == nil {
		t.Fatal("BANKS accepted empty query")
	}
}

func TestSearchExactGST(t *testing.T) {
	eng := newTestEngine(t)
	full, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 3, Variant: ExactGST})
	if err != nil {
		t.Fatal(err)
	}
	res := full.GST
	if len(res.Trees) == 0 || res.Popped == 0 {
		t.Fatalf("result = %+v", res)
	}
	best := res.Trees[0]
	if best.RootLabel == "" || len(best.Nodes) == 0 {
		t.Fatalf("tree = %+v", best)
	}
	if len(best.Edges) != len(best.Nodes)-1 {
		t.Fatalf("not a tree: %d edges, %d nodes", len(best.Edges), len(best.Nodes))
	}
	// The exact optimum's cost is a lower bound for every returned tree.
	for _, tr := range res.Trees[1:] {
		if tr.Cost < best.Cost {
			t.Fatal("trees not cost-ordered")
		}
	}
	if _, err := eng.Search(context.Background(), Query{Text: "", TopK: 3, Variant: ExactGST}); err == nil {
		t.Fatal("empty query accepted")
	}
	// 13 distinct terms exceed gst.MaxKeywords (12).
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf sql xpath xquery sparql facebook language version query relational path databases", TopK: 1, Variant: ExactGST}); err == nil {
		t.Fatal("over-long GST query accepted")
	}
}

func TestGenerateDatasetAndSearch(t *testing.T) {
	ds, err := GenerateDataset(DatasetConfig{Preset: "tiny-sim"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "tiny-sim" || len(ds.Planted) != 11 {
		t.Fatalf("dataset = %q with %d planted queries", ds.Name, len(ds.Planted))
	}
	eng, err := NewEngine(ds.Graph, EngineOptions{DistanceSamplePairs: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(context.Background(), Query{Text: strings.Join(ds.Planted[0].Keywords, " "), TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers on planted query")
	}
	if _, err := GenerateDataset(DatasetConfig{Preset: "nope"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestAblationKnobs(t *testing.T) {
	eng := newTestEngine(t)
	base, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Without level-cover, answers can only grow.
	noLC, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5, DisableLevelCover: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noLC.Answers) != len(base.Answers) {
		t.Fatalf("answer count changed: %d vs %d", len(noLC.Answers), len(base.Answers))
	}
	for i := range base.Answers {
		if len(noLC.Answers[i].Nodes) < len(base.Answers[i].Nodes) {
			t.Fatal("disabling level-cover shrank an answer")
		}
		if noLC.Answers[i].PrunedNodes != 0 {
			t.Fatal("unpruned answer reports pruned nodes")
		}
	}
	// Without activation levels the search still covers all keywords.
	noAct, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 5, DisableActivation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noAct.Answers) == 0 {
		t.Fatal("activation ablation returned nothing")
	}
	for i := range noAct.Answers {
		a := &noAct.Answers[i]
		for _, n := range a.Nodes {
			for _, h := range n.HitLevels {
				_ = h // hit levels may now ignore activation; just ensure structure holds
			}
		}
	}
}

func TestSearchContextCancellation(t *testing.T) {
	eng := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range []Variant{CPUPar, CPUParD, GPUPar} {
		if _, err := eng.Search(ctx, Query{Text: "xml rdf sql", Variant: v}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", v, err)
		}
	}
	// A live context behaves like Search.
	res, err := eng.Search(context.Background(), Query{Text: "xml rdf sql"})
	if err != nil || len(res.Answers) == 0 {
		t.Fatalf("live ctx: %v / %d answers", err, len(res.Answers))
	}
}

func TestEngineConcurrentSearches(t *testing.T) {
	eng := newTestEngine(t)
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		alpha := 0.05 + 0.05*float64(g%4) // exercise the level cache
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", Alpha: alpha}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestActivationDistribution(t *testing.T) {
	eng := newTestEngine(t)
	for _, alpha := range []float64{0.05, 0.1, 0.4} {
		d := eng.ActivationDistribution(alpha, 5)
		total := 0
		for _, c := range d {
			total += c
		}
		if total != eng.Graph().NumNodes() {
			t.Fatalf("α=%v: distribution sums to %d", alpha, total)
		}
	}
	// Fig. 3's shape: larger α moves mass toward low activation levels.
	small := eng.ActivationDistribution(0.05, 5)
	large := eng.ActivationDistribution(0.4, 5)
	if large[0] < small[0] {
		t.Fatalf("α=0.4 low-level mass %d < α=0.05's %d", large[0], small[0])
	}
}

// TestActivationLevelsSingleflight is the regression test for the
// duplicate-computation race: concurrent first requests with the same new
// α must coordinate on one computation and share one level vector.
func TestActivationLevelsSingleflight(t *testing.T) {
	eng := newTestEngine(t)
	const goroutines = 16
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		got   [goroutines][]uint8
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = eng.activationLevels(0.33, 1)
		}(g)
	}
	close(start)
	wg.Wait()
	if n := eng.LevelComputations(); n != 1 {
		t.Fatalf("α=0.33 computed %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if &got[g][0] != &got[0][0] {
			t.Fatalf("goroutine %d got a different level vector", g)
		}
	}
}

// TestActivationLevelsEvictionSafety floods the cache past its bound while
// readers hold entries; under -race this would flag the old drop-mid-flight
// eviction, and every caller must still get a complete vector.
func TestActivationLevelsEvictionSafety(t *testing.T) {
	eng := newTestEngine(t)
	n := eng.Graph().NumNodes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				alpha := 0.01 + 0.01*float64((g*40+i)%37)
				if lv := eng.activationLevels(alpha, 1); len(lv) != n {
					t.Errorf("α=%v: vector len %d, want %d", alpha, len(lv), n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSearchObserver(t *testing.T) {
	eng := newTestEngine(t)
	var (
		mu   sync.Mutex
		oks  int
		errs int
	)
	eng.SetSearchObserver(func(q Query, res *Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs++
			return
		}
		if res == nil || len(res.Phases) == 0 {
			t.Error("observer got a success with no phase profile")
		}
		oks++
	})
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf sql"}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(context.Background(), Query{Text: "zzznothing"}); err == nil {
		t.Fatal("want error for unmatched keyword")
	}
	mu.Lock()
	if oks != 1 || errs != 1 {
		t.Fatalf("observer saw %d ok / %d err, want 1/1", oks, errs)
	}
	mu.Unlock()
	eng.SetSearchObserver(nil) // removal must not panic searches
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf sql"}); err != nil {
		t.Fatal(err)
	}
}
