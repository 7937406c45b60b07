package wikisearch

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"wikisearch/dataset"
	"wikisearch/internal/core"
	"wikisearch/internal/text"
)

// TestFormatEquivalence is the v3 acceptance suite: an engine loaded from
// a memory-mapped v3 dump must answer every query bit-identically to the
// in-memory engine that saved it, across variants and thread counts.
// Queries are randomized from real node labels so term matching, frontier
// expansion and scoring all run over the zero-copy views.
func TestFormatEquivalence(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Graph, EngineOptions{Threads: 2, DistanceSamplePairs: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetName(ds.Name)

	path := filepath.Join(t.TempDir(), "kb.wskb")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	e3, err := LoadEngine(path, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()

	info := e3.LoadInfo()
	if info.Format != 4 {
		t.Fatalf("v3 load info = %+v", info)
	}
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		if info.Mode != "mmap" || info.MappedBytes <= 0 {
			t.Fatalf("v3 not mmap-loaded: %+v", info)
		}
	}
	if e3.AvgDistance() != eng.AvgDistance() || e3.DistanceDeviation() != eng.DistanceDeviation() {
		t.Fatalf("A = %v ± %v, want %v ± %v",
			e3.AvgDistance(), e3.DistanceDeviation(), eng.AvgDistance(), eng.DistanceDeviation())
	}

	searches := []struct {
		name string
		run  func(*Engine, context.Context, Query) (*Result, error)
	}{
		{"CPU-Par", (*Engine).Search},
		{"CPU-Par-d", func(e *Engine, ctx context.Context, q Query) (*Result, error) {
			return e.SearchWith(ctx, q, core.SearchDynamic)
		}},
	}
	for _, q := range equivalenceQueries(t, eng, 25) {
		for _, s := range searches {
			for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
				q.Threads = threads
				rm, errm := s.run(eng, context.Background(), q)
				r3, err3 := s.run(e3, context.Background(), q)
				if (errm == nil) != (err3 == nil) {
					t.Fatalf("%q %s t%d: in-memory err %v, v3 err %v", q.Text, s.name, threads, errm, err3)
				}
				if errm != nil {
					continue
				}
				sameResult(t, q.Text, rm, r3)
			}
		}
	}
}

// equivalenceQueries derives n randomized keyword queries from the
// engine's own node labels, so most of them actually match terms.
func equivalenceQueries(t *testing.T, e *Engine, n int) []Query {
	t.Helper()
	g := e.Graph()
	rng := rand.New(rand.NewSource(99))
	qs := make([]Query, 0, n)
	for len(qs) < n {
		var words []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			v := NodeID(rng.Intn(g.NumNodes()))
			terms := text.Normalize(g.Label(v))
			if len(terms) > 0 {
				words = append(words, terms[rng.Intn(len(terms))])
			}
		}
		if len(words) == 0 {
			continue
		}
		text := ""
		for i, w := range words {
			if i > 0 {
				text += " "
			}
			text += w
		}
		qs = append(qs, Query{Text: text, TopK: 1 + rng.Intn(5)})
	}
	return qs
}
