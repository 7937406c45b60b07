package wikisearch

// Scale smoke test: the paper's target is real-time response on large
// graphs; this test generates a KB an order of magnitude beyond the bench
// presets and checks a multi-keyword query still answers in interactive
// time. Skipped with -short.

import (
	"context"
	"testing"
	"time"

	"wikisearch/dataset"
)

func TestLargeScaleSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping large-scale generation in -short mode")
	}
	ds, err := dataset.Generate(dataset.Config{
		Name:      "scale-sim",
		Nodes:     400000,
		AvgDegree: 8,
		VocabSize: 30000,
		Seed:      77,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if g.NumNodes() < 400000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	eng, err := NewEngine(g, EngineOptions{DistanceSamplePairs: 500})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := eng.Search(context.Background(), Query{Text: "bayesian inference markov network", TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.Answers) == 0 {
		t.Fatal("no answers at scale")
	}
	// "Interactive time" with generous slack for CI machines.
	if elapsed > 30*time.Second {
		t.Fatalf("query took %v on %d nodes", elapsed, g.NumNodes())
	}
	for i := range res.Answers {
		a := &res.Answers[i]
		seen := map[string]bool{}
		for _, n := range a.Nodes {
			for _, kw := range n.Keywords {
				seen[kw] = true
			}
		}
		for _, term := range res.Terms {
			if !seen[term] {
				t.Fatalf("answer %d misses keyword %q", i, term)
			}
		}
	}
	t.Logf("%d nodes / %d edges: %d answers in %v (d=%d, %d candidates)",
		g.NumNodes(), g.NumEdges(), len(res.Answers), elapsed, res.Depth, res.Candidates)
}
