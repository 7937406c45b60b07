package gen

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

func tinyKB(t *testing.T) *KB {
	t.Helper()
	return Generate(TinySim())
}

func TestGenerateValidGraph(t *testing.T) {
	kb := tinyKB(t)
	if err := kb.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := TinySim().defaults()
	if kb.Graph.NumNodes() < cfg.Nodes {
		t.Fatalf("nodes = %d, want >= %d", kb.Graph.NumNodes(), cfg.Nodes)
	}
	// Degree budget roughly met (plantings add a few percent).
	avg := float64(kb.Graph.NumEdges()) / float64(kb.Graph.NumNodes())
	if avg < cfg.AvgDegree*0.7 || avg > cfg.AvgDegree*1.5 {
		t.Fatalf("average degree %.2f, want ≈ %.1f", avg, cfg.AvgDegree)
	}
}

func TestSummaryHubExists(t *testing.T) {
	// The "human" class must be the style of superhub §IV-A describes:
	// huge in-degree, dominated by one label.
	kb := tinyKB(t)
	human := kb.Classes[0]
	if kb.Graph.Label(human) != "human" {
		t.Fatalf("class 0 label = %q", kb.Graph.Label(human))
	}
	indeg := kb.Graph.InDegree(human)
	if indeg < kb.Graph.NumNodes()/20 {
		t.Fatalf("human in-degree %d too small for a superhub", indeg)
	}
	// It must also be among the heaviest nodes by Eq. 2.
	pool := parallel.NewPool(2)
	w := weight.Compute(kb.Graph, pool)
	heavier := 0
	for _, x := range w {
		if x > w[human] {
			heavier++
		}
	}
	if heavier > kb.Graph.NumNodes()/100 {
		t.Fatalf("human is not in the top 1%% by degree of summary (%d heavier)", heavier)
	}
}

func TestZipfKeywordFrequencies(t *testing.T) {
	kb := tinyKB(t)
	ix := text.BuildIndex(kb.Graph)
	// Head words are frequent; rare-tail words are rare (Table V's Q11).
	freqHead := ix.Frequency("learning")
	freqRare := ix.Frequency("wikidata")
	if freqHead == 0 || freqRare == 0 {
		t.Fatalf("frequencies: learning=%d wikidata=%d, both must be positive", freqHead, freqRare)
	}
	if freqHead < 10*freqRare {
		t.Fatalf("head word (%d) not ≫ rare word (%d)", freqHead, freqRare)
	}
}

func TestPlantedQueries(t *testing.T) {
	kb := tinyKB(t)
	if len(kb.Planted) != 11 {
		t.Fatalf("planted %d queries, want 11", len(kb.Planted))
	}
	ix := text.BuildIndex(kb.Graph)
	for _, p := range kb.Planted {
		if len(p.Cores) != coresPerQuery || len(p.Decoys) != decoysPerQuery {
			t.Fatalf("%s: %d cores / %d decoys", p.ID, len(p.Cores), len(p.Decoys))
		}
		// Every query keyword resolves in the index.
		for _, kw := range p.Keywords {
			if ix.Frequency(kw) == 0 {
				t.Fatalf("%s: keyword %q has no postings", p.ID, kw)
			}
		}
		// Core labels collectively cover all query keywords.
		covered := map[string]bool{}
		for _, c := range p.Cores {
			label := kb.Graph.Label(c)
			for _, kw := range p.Keywords {
				for _, tok := range text.Normalize(label) {
					for _, qt := range text.Normalize(kw) {
						if tok == qt {
							covered[kw] = true
						}
					}
				}
			}
			// Cores must connect to the hub.
			if !kb.Graph.HasEdge(c, p.Hub) {
				t.Fatalf("%s: core %d not wired to hub", p.ID, c)
			}
		}
		for _, kw := range p.Keywords {
			if !covered[kw] {
				t.Fatalf("%s: keyword %q not covered by any core", p.ID, kw)
			}
		}
		// Decoys carry at least one query keyword and sit on the superhub.
		for _, d := range p.Decoys {
			if !kb.Graph.HasEdge(d, kb.Classes[0]) {
				t.Fatalf("%s: decoy %d not wired to the superhub", p.ID, d)
			}
		}
	}
	if got := EffectivenessQueryIDs(); len(got) != 11 || got[0] != "Q1" || got[10] != "Q11" {
		t.Fatalf("EffectivenessQueryIDs = %v", got)
	}
}

func TestEfficiencyWorkload(t *testing.T) {
	kb := tinyKB(t)
	ix := text.BuildIndex(kb.Graph)
	for _, knum := range []int{2, 4, 6} {
		w := EfficiencyWorkload(kb, ix, knum, 20, 42)
		if len(w.Queries) != 20 {
			t.Fatalf("knum=%d: %d queries, want 20", knum, len(w.Queries))
		}
		for _, q := range w.Queries {
			terms := strings.Fields(q)
			if len(terms) != knum {
				t.Fatalf("query %q has %d terms, want %d", q, len(terms), knum)
			}
			for _, term := range terms {
				if len(ix.Lookup(term)) == 0 {
					t.Fatalf("query term %q unresolvable", term)
				}
			}
		}
	}
	// Deterministic in seed.
	a := EfficiencyWorkload(kb, ix, 4, 10, 1)
	b := EfficiencyWorkload(kb, ix, 4, 10, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("workload not deterministic")
	}
}

func TestVocab(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVocab(500, rng)
	if v.Size() != 500 {
		t.Fatalf("Size = %d", v.Size())
	}
	// Rare tail occupies the last ranks.
	last := v.Word(v.Size() - 1)
	found := false
	for _, w := range rareTail {
		if w == last {
			found = true
		}
	}
	if !found {
		t.Fatalf("last word %q not from rare tail", last)
	}
	// Zipf skew: the most frequent word is sampled far more often than a
	// mid-rank one.
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[v.Word(v.draw(rng))]++
	}
	if counts[v.Word(0)] < 20*counts[v.Word(250)]/2 && counts[v.Word(0)] < 100 {
		t.Fatalf("head word count %d not dominant (mid-rank %d)", counts[v.Word(0)], counts[v.Word(250)])
	}
	// drawN distinct.
	ws := v.drawN([]int32{0, 1}, 10, rng)[2:]
	if len(ws) != 10 {
		t.Fatalf("drawN appended %d words, want 10", len(ws))
	}
	seen := map[int32]bool{}
	for _, w := range ws {
		if seen[w] {
			t.Fatalf("drawN returned duplicate %q", v.Word(int(w)))
		}
		seen[w] = true
	}
}

// TestVocabWordsDistinct backs drawN's index-based duplicate check: it
// equals the word-based one only while no two ranks hold the same word.
func TestVocabWordsDistinct(t *testing.T) {
	for _, size := range []int{0, 600, 8000, 12000, 100000} {
		v := NewVocab(size, rand.New(rand.NewSource(int64(size))))
		seen := make(map[string]int, v.Size())
		for i := 0; i < v.Size(); i++ {
			if j, dup := seen[v.Word(i)]; dup {
				t.Fatalf("size %d: ranks %d and %d both hold %q", size, j, i, v.Word(i))
			}
			seen[v.Word(i)] = i
		}
	}
}

// TestVocabSearchExact checks the guided search against a plain binary
// search over the whole cumulative table, at random draws and at the
// points where rounding could mislead the guide: every cumulative weight,
// its neighbouring floats, every bucket edge, zero and the total.
func TestVocabSearchExact(t *testing.T) {
	for _, size := range []int{139, 600, 12000, 100000} {
		v := NewVocab(size, rand.New(rand.NewSource(int64(size))))
		total := v.cum[len(v.cum)-1]
		xs := []float64{0, total, math.Nextafter(total, 0)}
		for _, c := range v.cum {
			xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		for j := range v.guide {
			e := float64(j) / v.guideScale
			xs = append(xs, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 100000; i++ {
			xs = append(xs, rng.Float64()*total)
		}
		for _, x := range xs {
			if x < 0 || x > total {
				continue
			}
			want, _ := slices.BinarySearch(v.cum, x)
			want = min(want, len(v.cum)-1)
			if got := v.search(x); got != want {
				t.Fatalf("size %d: search(%v) = %d, want %d", size, x, got, want)
			}
		}
	}
}

func TestPresetConfigs(t *testing.T) {
	for _, cfg := range []Config{Wiki2017Sim(), Wiki2018Sim(), TinySim()} {
		d := cfg.defaults()
		if d.Nodes <= 0 || d.AvgDegree <= 0 || d.VocabSize <= 0 {
			t.Fatalf("%s: bad defaults %+v", cfg.Name, d)
		}
	}
	if Wiki2018Sim().Nodes <= Wiki2017Sim().Nodes {
		t.Fatal("wiki2018-sim must be larger than wiki2017-sim")
	}
}

// BenchmarkGenerate times one whole wiki2017-sim generation: the RNG loop,
// vocabulary draws, labels and the CSR build.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Wiki2017Sim())
	}
}
