package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// referenceBuildIndex is the original serial index build, kept as the
// oracle for BuildIndex: every token occurrence is normalised afresh and a
// per-node map de-duplicates term ids.
func referenceBuildIndex(g *graph.Graph) *Index {
	ix := &Index{ids: make(map[string]int32)}
	n := g.NumNodes()
	// Per-node de-duplication scratch.
	seen := make(map[int32]struct{}, 16)
	for v := 0; v < n; v++ {
		clear(seen)
		addTerms := func(s string) {
			for _, term := range Normalize(s) {
				id, ok := ix.ids[term]
				if !ok {
					id = int32(len(ix.names))
					ix.ids[term] = id
					ix.names = append(ix.names, term)
					ix.postings = append(ix.postings, nil)
				}
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				ix.postings[id] = append(ix.postings[id], graph.NodeID(v))
			}
		}
		addTerms(g.Label(graph.NodeID(v)))
		addTerms(g.Description(graph.NodeID(v)))
	}
	for _, p := range ix.postings {
		if len(p) > ix.maxLen {
			ix.maxLen = len(p)
		}
		ix.totalPost += len(p)
	}
	return ix
}

// checkIndexMatchesReference asserts BuildIndex equals the oracle exactly —
// term ids, names, postings and the size counters — at 1, 2 and 3 workers
// (3 splits the nodes unevenly) and without a pool.
func checkIndexMatchesReference(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := referenceBuildIndex(g)
	wantNames, wantPostings := want.Export()
	check := func(label string, got *Index) {
		t.Helper()
		names, postings := got.Export()
		if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(postings, wantPostings) {
			t.Errorf("%s, %s: Export differs from the oracle (%d/%d terms)", name, label, len(names), len(wantNames))
		}
		if !reflect.DeepEqual(got.ids, want.ids) {
			t.Errorf("%s, %s: term ids differ from the oracle", name, label)
		}
		if got.NumTerms() != want.NumTerms() || got.TotalPostings() != want.TotalPostings() || got.MaxPostingLen() != want.MaxPostingLen() {
			t.Errorf("%s, %s: sizes %d/%d/%d, oracle %d/%d/%d", name, label,
				got.NumTerms(), got.TotalPostings(), got.MaxPostingLen(),
				want.NumTerms(), want.TotalPostings(), want.MaxPostingLen())
		}
	}
	check("no pool", BuildIndex(g))
	for _, workers := range []int{1, 2, 3} {
		pool := parallel.NewPool(workers)
		check(fmt.Sprintf("%d workers", workers), BuildIndex(g, pool))
		pool.Close()
	}
}

// randomText draws node text exercising the memo: mixed case, stopwords,
// punctuation, digits, non-ASCII letters, repeated tokens within a node and
// distinct tokens that stem to one term.
func randomText(rng *rand.Rand) string {
	words := []string{"Connect", "connected", "connecting", "connection", "the",
		"of", "AND", "graph", "Graphs", "keyword", "database", "databases",
		"query-language", "SPARQL", "1.1", "x2", "Über", "naïve", "sky", "is",
		"relational", "RELATIONAL", "search", "engine", "a", "ab"}
	n := rng.Intn(7)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

func randomTextGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(randomText(rng), randomText(rng))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildIndexMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		checkIndexMatchesReference(t, fmt.Sprintf("seed %d", seed), randomTextGraph(t, 20+int(seed)*37, seed))
	}
	checkIndexMatchesReference(t, "two nodes", randomTextGraph(t, 2, 9))
	checkIndexMatchesReference(t, "empty", randomTextGraph(t, 0, 9))
}

// TestBuildIndexMatchesReferenceMaterialized indexes a graph materialised
// from a delta overlay with added and retexted nodes — the graph Compact and
// SaveFormat index.
func TestBuildIndexMatchesReferenceMaterialized(t *testing.T) {
	base := randomTextGraph(t, 150, 3)
	d := graph.NewDeltaBuilder(base)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		d.AddNode(randomText(rng), randomText(rng))
		if err := d.SetText(graph.NodeID(rng.Intn(base.NumNodes())), randomText(rng), randomText(rng)); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexMatchesReference(t, "materialized", d.Overlay().Materialize())
}
