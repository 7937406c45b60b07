package wikisearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

var mutWords = []string{"database", "graph", "keyword", "search", "engine",
	"parallel", "wiki", "knowledge", "system", "query", "steiner", "central"}

var mutRels = []string{"next", "linked to", "part of", "instance of", "near"}

// mutModel is the reference final state a mutation stream should produce:
// replaying it through a fresh Builder gives the graph the mutated engine
// must be answer-identical to.
type mutModel struct {
	labels, descs []string
	edges         []mutEdge
}

type mutEdge struct {
	from, to NodeID
	rel      string
}

func (m *mutModel) build(t *testing.T, relOrder []string) *Graph {
	t.Helper()
	b := NewBuilder()
	// Pre-intern relations in the mutated graph's order: adjacency lists
	// sort by (endpoint, RelID), so matching ids is part of bit-identity.
	for _, r := range relOrder {
		b.Rel(r)
	}
	for i := range m.labels {
		b.AddNode(m.labels[i], m.descs[i])
	}
	for _, e := range m.edges {
		b.AddEdgeNamed(e.from, e.to, e.rel)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mutText(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += mutWords[rng.Intn(len(mutWords))]
	}
	return s
}

// randomMutBase builds a random connected-ish base graph and its model.
func randomMutBase(t *testing.T, rng *rand.Rand) (*Graph, *mutModel) {
	t.Helper()
	n := 20 + rng.Intn(20)
	mo := &mutModel{}
	b := NewBuilder()
	for _, r := range mutRels {
		b.Rel(r)
	}
	for i := 0; i < n; i++ {
		l, d := mutText(rng), mutText(rng)
		mo.labels = append(mo.labels, l)
		mo.descs = append(mo.descs, d)
		b.AddNode(l, d)
	}
	for i := 0; i < 3*n; i++ {
		e := mutEdge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), mutRels[rng.Intn(len(mutRels))]}
		mo.edges = append(mo.edges, e)
		b.AddEdgeNamed(e.from, e.to, e.rel)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, mo
}

// applyRandomOps drives one random mutation against both the mutator and
// the reference model.
func applyRandomOp(t *testing.T, rng *rand.Rand, m *Mutator, mo *mutModel) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 2: // add node
		l, d := mutText(rng), mutText(rng)
		v, err := m.AddNode(l, d)
		if err != nil {
			t.Fatal(err)
		}
		if int(v) != len(mo.labels) {
			t.Fatalf("AddNode id %d, want %d", v, len(mo.labels))
		}
		mo.labels = append(mo.labels, l)
		mo.descs = append(mo.descs, d)
	case op < 6: // add edge
		e := mutEdge{NodeID(rng.Intn(len(mo.labels))), NodeID(rng.Intn(len(mo.labels))), mutRels[rng.Intn(len(mutRels))]}
		if err := m.AddEdge(e.from, e.to, e.rel); err != nil {
			t.Fatal(err)
		}
		mo.edges = append(mo.edges, e)
	case op < 8: // remove a random existing edge
		if len(mo.edges) == 0 {
			return
		}
		i := rng.Intn(len(mo.edges))
		e := mo.edges[i]
		if err := m.RemoveEdge(e.from, e.to, e.rel); err != nil {
			t.Fatal(err)
		}
		mo.edges = append(mo.edges[:i], mo.edges[i+1:]...)
	default: // retext
		v := NodeID(rng.Intn(len(mo.labels)))
		l, d := mutText(rng), mutText(rng)
		if err := m.SetKeywords(v, l, d); err != nil {
			t.Fatal(err)
		}
		mo.labels[v], mo.descs[v] = l, d
	}
}

func mutQueries(rng *rand.Rand) []string {
	qs := make([]string, 4)
	for i := range qs {
		a, b := rng.Intn(len(mutWords)), rng.Intn(len(mutWords))
		for b == a {
			b = rng.Intn(len(mutWords))
		}
		qs[i] = mutWords[a] + " " + mutWords[b]
	}
	return qs
}

// relOrder lists the relation names of g in RelID order, so a model graph
// can intern them identically.
func relOrder(g *Graph) []string {
	names := make([]string, g.NumRels())
	for r := range names {
		names[r] = g.RelName(graph.RelID(r))
	}
	return names
}

// checkSnapshotDerived is the per-publish oracle for the snapshot's derived
// state: its weights equal a full weight.Compute of its graph plus the
// mutator's overrides, every activation-level vector it carries equals
// weight.Levels of those weights, and every term of words resolves exactly
// as in a fresh index of the materialized graph. It returns the number of
// level vectors the snapshot carried.
func checkSnapshotDerived(t *testing.T, eng *Engine, m *Mutator, words []string) int {
	t.Helper()
	sn := eng.snap()
	pool := parallel.NewPool(1)
	defer pool.Close()
	want := weight.Compute(sn.g, pool)
	for v, wt := range m.reweights {
		want[v] = wt
	}
	if !reflect.DeepEqual(sn.weights, want) {
		t.Fatal("published weights differ from weight.Compute plus overrides")
	}
	sn.mu.Lock()
	carried := map[float64][]uint8{}
	for alpha, ent := range sn.levelCache {
		if ent.done.Load() {
			carried[alpha] = ent.lv
		}
	}
	sn.mu.Unlock()
	for alpha, lv := range carried {
		if !slices.Equal(lv, weight.Levels(want, sn.avgDist, alpha, pool)) {
			t.Fatalf("carried levels at α=%v differ from weight.Levels", alpha)
		}
	}
	fresh := text.BuildIndex(sn.g.Materialize())
	for _, w := range words {
		for _, term := range text.Normalize(w) {
			got, exp := sn.lookupTerm(term), fresh.LookupTerm(term)
			if (len(got) != 0 || len(exp) != 0) && !slices.Equal(got, exp) {
				t.Fatalf("term %q: snapshot postings %v, fresh index %v", term, got, exp)
			}
		}
	}
	if got, exp := sn.vocabSize(), fresh.NumTerms(); got != exp {
		t.Fatalf("vocabulary %d, fresh index %d", got, exp)
	}
	return len(carried)
}

// sameAnswers runs queries at Tnum 1 and GOMAXPROCS on both engines and
// requires bit-identical terms, depth, candidates and answers.
func sameAnswers(t *testing.T, eng, fresh *Engine, queries []string) {
	t.Helper()
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, text := range queries {
			q := Query{Text: text, TopK: 5, Threads: threads}
			a, errA := eng.Search(context.Background(), q)
			b, errB := fresh.Search(context.Background(), q)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("q=%q threads=%d: err %v vs %v", text, threads, errA, errB)
			}
			if errA != nil {
				continue // both reject (e.g. no keyword hit)
			}
			label := fmt.Sprintf("q=%q threads=%d", text, threads)
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
	}
}

// moveWeightBounds drives the mutated graph's raw weight bounds: it drains
// every in-edge of the top-weight hubs (the maximum moves), then gives every
// node without in-edges one (the minimum moves off 0, since a node with
// in-edges has raw weight ≥ 1). publish runs after each step, which must
// take the full-normalise fallback; the oracle inside publish checks it.
func moveWeightBounds(t *testing.T, m *Mutator, mo *mutModel, publish func()) {
	t.Helper()
	publish() // settle pending ops so m.mn/m.mx are the bounds of mo
	mn, mx := m.mn, m.mx
	pool := parallel.NewPool(1)
	defer pool.Close()
	raw := weight.Raw(mo.build(t, relOrder(m.eng.Graph())), pool)
	_, top := weight.Bounds(raw)
	for i := len(mo.edges) - 1; i >= 0; i-- {
		if e := mo.edges[i]; raw[e.to] == top {
			if err := m.RemoveEdge(e.from, e.to, e.rel); err != nil {
				t.Fatal(err)
			}
			mo.edges = append(mo.edges[:i], mo.edges[i+1:]...)
		}
	}
	publish()
	if m.mx == mx {
		t.Fatalf("draining the hubs left the max raw weight at %v", mx)
	}
	hasIn := make([]bool, len(mo.labels))
	for _, e := range mo.edges {
		hasIn[e.to] = true
	}
	for v, ok := range hasIn {
		if !ok {
			e := mutEdge{NodeID((v + 1) % len(hasIn)), NodeID(v), mutRels[0]}
			if err := m.AddEdge(e.from, e.to, e.rel); err != nil {
				t.Fatal(err)
			}
			mo.edges = append(mo.edges, e)
		}
	}
	publish()
	if m.mn == mn {
		t.Fatalf("feeding every node an in-edge left the min raw weight at %v", mn)
	}
}

// TestMutateCompactEquivalence is the PR's core acceptance suite: an engine
// that absorbed N random mutations and compacted is answer-identical — bit
// for bit, including scores and weights — to a fresh engine built from the
// final graph, at Tnum=1 and at GOMAXPROCS. Every interleaved publish is
// checked too: the incrementally patched weights, carried activation levels
// and keyword overlay must equal a full recompute, and answers must equal a
// fresh engine's on the graph of that moment. Seed 4 also moves the global
// min and max raw weight, so the full-normalise fallback runs.
func TestMutateCompactEquivalence(t *testing.T) {
	const pinnedA = 3.5 // both engines skip distance sampling
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			qrng := rand.New(rand.NewSource(seed + 1000)) // per-publish queries; rng's op stream stays fixed
			base, mo := randomMutBase(t, rng)
			eng, err := NewEngine(base, EngineOptions{Threads: 2, AvgDistance: pinnedA})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			// Cache the default α's levels so every publish has a vector
			// to carry; each per-publish search re-caches it.
			sameAnswers(t, eng, eng, mutQueries(qrng))
			publish := func() {
				t.Helper()
				if _, err := m.Publish(); err != nil {
					t.Fatal(err)
				}
				if checkSnapshotDerived(t, eng, m, mutWords) == 0 {
					t.Fatal("publish carried no activation levels")
				}
				fresh, err := NewEngine(mo.build(t, relOrder(eng.Graph())), EngineOptions{Threads: 2, AvgDistance: pinnedA})
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				sameAnswers(t, eng, fresh, mutQueries(qrng))
			}

			ops := 40 + rng.Intn(40)
			for i := 0; i < ops; i++ {
				applyRandomOp(t, rng, m, mo)
				if rng.Intn(16) == 0 { // interleave publishes: chained overlays
					publish()
				}
			}
			if seed == 4 {
				moveWeightBounds(t, m, mo, publish)
			}
			publish()
			info, err := m.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !info.Compacted {
				t.Fatal("Compact did not report a compacted snapshot")
			}
			if eng.Graph().HasOverlay() {
				t.Fatal("overlay survived compaction")
			}
			if st := eng.EpochStats(); st.DeltaNodes != 0 || st.DeltaEdges != 0 || st.DeltaTerms != 0 {
				t.Fatalf("delta gauges nonzero after compaction: %+v", st)
			}

			checkSnapshotDerived(t, eng, m, mutWords)
			fresh, err := NewEngine(mo.build(t, relOrder(eng.Graph())), EngineOptions{Threads: 2, AvgDistance: pinnedA})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()

			if got, want := eng.Graph().NumNodes(), fresh.Graph().NumNodes(); got != want {
				t.Fatalf("node count %d, want %d", got, want)
			}
			if got, want := eng.Graph().NumEdges(), fresh.Graph().NumEdges(); got != want {
				t.Fatalf("edge count %d, want %d", got, want)
			}
			if !reflect.DeepEqual(eng.Weights(), fresh.Weights()) {
				t.Fatal("weights not bit-identical after compaction")
			}
			sameAnswers(t, eng, fresh, mutQueries(rng))
		})
	}
}

// TestMutatePublishedViewEquivalence checks the overlay path itself (before
// any compaction): a published but unmerged delta answers identically to a
// fresh engine on the same logical graph.
func TestMutatePublishedViewEquivalence(t *testing.T) {
	const pinnedA = 3.5
	rng := rand.New(rand.NewSource(99))
	base, mo := randomMutBase(t, rng)
	eng, err := NewEngine(base, EngineOptions{Threads: 2, AvgDistance: pinnedA})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 30; i++ {
		applyRandomOp(t, rng, m, mo)
	}
	if _, err := m.Publish(); err != nil {
		t.Fatal(err)
	}
	if !eng.Graph().HasOverlay() {
		t.Fatal("expected an overlay view before compaction")
	}

	fresh, err := NewEngine(mo.build(t, relOrder(eng.Graph())), EngineOptions{Threads: 2, AvgDistance: pinnedA})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, text := range mutQueries(rng) {
		q := Query{Text: text, TopK: 5, Threads: 2}
		a, errA := eng.Search(context.Background(), q)
		b, errB := fresh.Search(context.Background(), q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("q=%q: err %v vs %v", text, errA, errB)
		}
		if errA == nil && !reflect.DeepEqual(a.Answers, b.Answers) {
			t.Fatalf("q=%q: overlay view answers differ from fresh build", text)
		}
	}
}

// TestMutateVisibility: mutations are invisible until Publish, then visible.
func TestMutateVisibility(t *testing.T) {
	eng := newTestEngine(t)
	defer eng.Close()
	m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if n := eng.KeywordFrequency("zebra"); n != 0 {
		t.Fatalf("zebra already indexed: %d", n)
	}
	v, err := m.AddNode("Zebra", "striped query animal")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddEdge(v, 0, "instance of"); err != nil {
		t.Fatal(err)
	}
	if n := eng.KeywordFrequency("zebra"); n != 0 {
		t.Fatalf("unpublished mutation visible: %d", n)
	}
	epoch0 := eng.Epoch()
	info, err := m.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != epoch0+1 {
		t.Fatalf("epoch %d after publish, want %d", info.Epoch, epoch0+1)
	}
	if n := eng.KeywordFrequency("zebra"); n != 1 {
		t.Fatalf("published node not indexed: %d", n)
	}
	res, err := eng.Search(context.Background(), Query{Text: "zebra sql", TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		for _, n := range a.Nodes {
			if n.ID == v {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("added node unreachable through search")
	}
}

// TestMutateReweight: an operator override survives publish and compaction.
func TestMutateReweight(t *testing.T) {
	eng := newTestEngine(t)
	defer eng.Close()
	m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Reweight(2, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish(); err != nil {
		t.Fatal(err)
	}
	if w := eng.Weight(2); w != 0.9 {
		t.Fatalf("published weight %v, want 0.9", w)
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if w := eng.Weight(2); w != 0.9 {
		t.Fatalf("override lost at compaction: %v", w)
	}
	if err := m.Reweight(9999, 0.5); err == nil {
		t.Fatal("reweight of unknown node accepted")
	}
	if err := m.Reweight(1, 1.5); err == nil {
		t.Fatal("out-of-range weight accepted")
	}
	if err := m.Reweight(2, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
	g := eng.Graph()
	nan := &DeltaLog{BaseNodes: g.NumNodes(), BaseEdges: g.NumEdges(),
		Ops: []DeltaOp{{Kind: storage.DeltaReweight, V: 2, W: math.NaN()}}}
	if err := m.Replay(nan); err == nil {
		t.Fatal("replay of a NaN reweight accepted")
	}

	// Overrides ride the incremental publish: a new override and an edge
	// into an overridden node patch weights and carried levels exactly.
	if _, err := eng.Search(context.Background(), Query{Text: "xml rdf sql", TopK: 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reweight(6, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := m.Reweight(3, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEdge(0, 3, "instance of"); err != nil {
		t.Fatal(err)
	}
	mn, mx := m.mn, m.mx
	if _, err := m.Publish(); err != nil {
		t.Fatal(err)
	}
	if m.mn != mn || m.mx != mx {
		t.Fatal("raw weight bounds moved; the publish did not take the incremental path")
	}
	if checkSnapshotDerived(t, eng, m, nil) == 0 {
		t.Fatal("publish carried no activation levels")
	}
	if w := eng.Weight(2); w != 0.9 {
		t.Fatalf("override lost at publish: %v", w)
	}
	if w := eng.Weight(3); w != 0.8 {
		t.Fatalf("published weight %v, want 0.8", w)
	}
	if w := eng.Weight(6); w != 0.1 {
		t.Fatalf("published weight %v, want 0.1", w)
	}
}

// TestPublishCarriesLevels counts level computations: a search at an α the
// engine already cached computes no levels after a publish or a compaction,
// because both carry every computed vector into the new snapshot.
func TestPublishCarriesLevels(t *testing.T) {
	eng := newTestEngine(t)
	defer eng.Close()
	q := Query{Text: "xml rdf sql", TopK: 3, Threads: 2}
	if _, err := eng.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	computed := eng.LevelComputations()
	if computed == 0 {
		t.Fatal("first search computed no levels")
	}
	m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		v, err := m.AddNode("Zebra", "striped query animal")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddEdge(v, 1, "instance of"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Publish(); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if n := eng.LevelComputations(); n != computed {
			t.Fatalf("publish %d: level computations %d → %d, want none", i, computed, n)
		}
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := eng.LevelComputations(); n != computed {
		t.Fatalf("compaction: level computations %d → %d, want none", computed, n)
	}
	q.Alpha = 0.2 // an α no snapshot has computed yet
	if _, err := eng.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := eng.LevelComputations(); n != computed+1 {
		t.Fatalf("new α: level computations %d, want %d", n, computed+1)
	}
}

// TestMutateReplay: a saved delta segment replayed onto the same base
// reproduces the mutated graph exactly.
func TestMutateReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, mo := randomMutBase(t, rng)
	engA, err := NewEngine(base, EngineOptions{Threads: 2, AvgDistance: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer engA.Close()
	mA, err := engA.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mA.Close()
	for i := 0; i < 25; i++ {
		applyRandomOp(t, rng, mA, mo)
	}
	if _, err := mA.Publish(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/delta.wsdl"
	if err := mA.SaveDelta(path); err != nil {
		t.Fatal(err)
	}

	l, err := LoadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := NewEngine(base, EngineOptions{Threads: 2, AvgDistance: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer engB.Close()
	mB, err := engB.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	if err := mB.Replay(l); err != nil {
		t.Fatal(err)
	}
	if _, err := mB.Publish(); err != nil {
		t.Fatal(err)
	}
	ga, gb := engA.Graph(), engB.Graph()
	if ga.NumNodes() != gb.NumNodes() || ga.NumEdges() != gb.NumEdges() {
		t.Fatalf("replayed shape %d/%d, want %d/%d", gb.NumNodes(), gb.NumEdges(), ga.NumNodes(), ga.NumEdges())
	}
	if !reflect.DeepEqual(engA.Weights(), engB.Weights()) {
		t.Fatal("replayed weights differ")
	}
	res, err := engB.Search(context.Background(), Query{Text: mutWords[0] + " " + mutWords[1], TopK: 3})
	if err == nil && len(res.Answers) == 0 {
		t.Fatal("replayed engine returned no answers")
	}

	// Replay onto a mismatched base is rejected.
	l.BaseNodes++
	if err := mB.Replay(l); err == nil {
		t.Fatal("replay onto mismatched base accepted")
	}
}

// TestMutatorSingleHandle: at most one mutator is open per engine, a closed
// one frees the slot, and a closed handle rejects further mutations.
func TestMutatorSingleHandle(t *testing.T) {
	eng := newTestEngine(t)
	defer eng.Close()
	m, err := eng.NewMutator(MutatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewMutator(MutatorOptions{}); err == nil {
		t.Fatal("second mutator opened")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddNode("x", ""); err == nil {
		t.Fatal("closed mutator accepted a mutation")
	}
	m2, err := eng.NewMutator(MutatorOptions{})
	if err != nil {
		t.Fatalf("mutator after close: %v", err)
	}
	m2.Close()
}

// TestMutateWhileSearchingStress is the torn-epoch test: a writer toggles
// the graph between two states A and B (publishing and occasionally
// compacting) while reader goroutines search continuously. Every result
// must be bit-identical to the pure-A or the pure-B answer — anything else
// means a search observed a mix of two epochs.
func TestMutateWhileSearchingStress(t *testing.T) {
	eng := newTestEngine(t) // paper graph = state A
	defer eng.Close()
	q := Query{Text: "xml rdf sql", TopK: 5, Threads: 2}
	refA, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	m, err := eng.NewMutator(MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A→B: retext one hub node and rewire one edge; both the keyword
	// overlay and the graph overlay change together, so a torn view would
	// change the answer set.
	toB := func() {
		if err := m.SetKeywords(3, "SPARQL query language for XML", ""); err != nil {
			t.Error(err)
		}
		if err := m.AddEdge(0, 3, "related to"); err != nil {
			t.Error(err)
		}
	}
	toA := func() {
		if err := m.SetKeywords(3, "SPARQL query language for RDF", ""); err != nil {
			t.Error(err)
		}
		if err := m.RemoveEdge(0, 3, "related to"); err != nil {
			t.Error(err)
		}
	}
	toB()
	if _, err := m.Publish(); err != nil {
		t.Fatal(err)
	}
	refB, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(refA.Answers, refB.Answers) {
		t.Fatal("states A and B are not distinguishable; stress test is vacuous")
	}

	const toggles = 30
	done := make(chan struct{})
	var wg sync.WaitGroup
	torn := make(chan string, 1)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := eng.Search(context.Background(), q)
				if err != nil {
					select {
					case torn <- fmt.Sprintf("search error: %v", err):
					default:
					}
					return
				}
				if !reflect.DeepEqual(res.Answers, refA.Answers) && !reflect.DeepEqual(res.Answers, refB.Answers) {
					select {
					case torn <- fmt.Sprintf("torn answers: %+v", res.Answers):
					default:
					}
					return
				}
			}
		}()
	}
	inB := true
	for i := 0; i < toggles; i++ {
		if inB {
			toA()
		} else {
			toB()
		}
		inB = !inB
		if _, err := m.Publish(); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if _, err := m.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	if st := eng.EpochStats(); st.Epoch < toggles {
		t.Fatalf("epoch %d after %d publishes", st.Epoch, toggles)
	}
}

// TestSearchAllocationFreeWithIdleMutator is the allocguard variant for the
// live-mutation PR: with a mutator open and its delta empty, the warm
// kernel path — epoch pin, snapshot term lookup, bottom-up search — still
// allocates nothing.
func TestSearchAllocationFreeWithIdleMutator(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	eng := newTestEngine(t)
	defer eng.Close()
	m, err := eng.NewMutator(MutatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	q := Query{Text: "xml rdf sql", TopK: 5, Threads: 4}
	for i := 0; i < 3; i++ {
		if _, err := eng.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ep := eng.pinEpoch()
		if ep.snap.lookupTerm("xml") == nil {
			t.Fatal("term lost")
		}
		ep.unpin()
	})
	if allocs != 0 {
		t.Fatalf("epoch pin + overlay-aware lookup allocates %.1f times, want 0", allocs)
	}

	in, _, err := eng.snap().prepare(q.Text)
	if err != nil {
		t.Fatal(err)
	}
	p := eng.snap().params(q)
	in.Levels = eng.activationLevels(p.Alpha, p.Threads)
	st := eng.acquireState()
	defer eng.releaseState(st)
	st.SetTracing(true)
	if _, err := st.BottomUp(in, p); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := st.BottomUp(in, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm kernel path with idle mutator allocates %.1f times per query, want 0", allocs)
	}
}
