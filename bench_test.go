package wikisearch_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI). Each benchmark exercises the code path that regenerates the
// corresponding artifact; cmd/benchrunner runs the full parameter sweeps
// and prints the paper-formatted tables (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for paper-vs-measured).
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wikisearch"
	"wikisearch/internal/bench"
	"wikisearch/internal/eval"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
)

// env prepares the wiki2017-sim environment once for all benchmarks.
func env(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		e, err := bench.NewEnv(bench.Config{
			Preset:            "wiki2017-sim",
			QueriesPerSetting: 5,
			BanksMaxVisits:    30000,
			Threads:           4,
		})
		if err != nil {
			panic(err)
		}
		envVal = e
	})
	return envVal
}

// queries returns a fixed workload of the given keyword count.
func queries(b *testing.B, knum int) []string {
	b.Helper()
	qs := env(b).Workload(knum, 5)
	if len(qs) == 0 {
		b.Fatal("empty workload")
	}
	return qs
}

// searchBench times Engine.Search, CPU-Par, over the workload of knum
// keywords.
func searchBench(b *testing.B, knum, topk int, alpha float64, threads int) {
	e := env(b)
	qs := queries(b, knum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Eng.Search(context.Background(), wikisearch.Query{
			Text: qs[i%len(qs)], TopK: topk, Alpha: alpha, Threads: threads,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkTable2DatasetStats — Table II: sampled average-distance
// estimation (per 100 sampled pairs).
func BenchmarkTable2DatasetStats(b *testing.B) {
	e := env(b)
	rng := rand.New(rand.NewSource(7))
	pool := parallel.NewPool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.SampleAverageDistance(e.KB.Graph, 100, rng, pool)
		if s.Mean <= 0 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkFig3ActivationDistribution — Fig. 3: node distribution over
// minimum activation levels across the paper's three α values.
func BenchmarkFig3ActivationDistribution(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, raw := e.Fig3([]float64{0.05, 0.1, 0.4}); len(raw) != 3 {
			b.Fatal("bad distribution")
		}
	}
}

// BenchmarkExp1VaryKnum* — Fig. 6/7 series: one full query at the default
// Knum=6 per variant (the sweep itself is benchrunner -exp exp1). The
// comparison systems' series are in paper/bench_test.go.

func BenchmarkExp1VaryKnumCPUPar(b *testing.B) {
	searchBench(b, 6, 20, 0.1, 4)
}

// BenchmarkExp2VaryTopk — Fig. 8 row 1's extreme point (Topk=50).
func BenchmarkExp2VaryTopk50(b *testing.B) {
	searchBench(b, 6, 50, 0.1, 4)
}

// BenchmarkExp3VaryAlpha — Fig. 8 row 2's extreme points.
func BenchmarkExp3VaryAlpha005(b *testing.B) {
	searchBench(b, 6, 20, 0.05, 4)
}

func BenchmarkExp3VaryAlpha040(b *testing.B) {
	searchBench(b, 6, 20, 0.4, 4)
}

// BenchmarkExp4VaryThreads — Fig. 9/10's endpoints: sequential vs Tnum=8.
func BenchmarkExp4VaryThreadsT1(b *testing.B) {
	searchBench(b, 6, 20, 0.1, 1)
}

func BenchmarkExp4VaryThreadsT8(b *testing.B) {
	searchBench(b, 6, 20, 0.1, 8)
}

// BenchmarkTable4Storage — Table IV: storage accounting.
func BenchmarkTable4Storage(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, costs := bench.Table4([]*bench.Env{e}, 8)
		if costs[0].MaxRunning <= 0 {
			b.Fatal("bad accounting")
		}
	}
}

// BenchmarkTable5QueryStats — Table V: keyword-frequency resolution for
// the effectiveness queries.
func BenchmarkTable5QueryStats(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := bench.Table5([]*bench.Env{e})
		if len(t.Rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig11Effectiveness — Fig. 11/12: one planted query end to end,
// including relevance judgment against the oracle.
func BenchmarkFig11Effectiveness(b *testing.B) {
	e := env(b)
	p := &e.KB.Planted[3] // Q4: the phrase-splitting query BANKS fails
	oracle := eval.NewOracle(p, e.Ix)
	q := strings.Join(p.Keywords, " ")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Eng.Search(context.Background(), wikisearch.Query{Text: q, TopK: 20, Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		sets := make([][]graph.NodeID, 0, len(res.Answers))
		for j := range res.Answers {
			sets = append(sets, res.Answers[j].NodeIDs())
		}
		if p := oracle.PrecisionAtK(sets, 20); p < 0 || p > 1 {
			b.Fatal("bad precision")
		}
	}
}

// BenchmarkPublish — one live-mutation publish on wiki2017-sim: each
// iteration applies the 8-op batch shape of the benchmark's mutate-mix
// write stream (two new nodes wired into the graph, one retext, one
// base-to-base edge added and the previous batch's removed) and publishes
// it, with one α's activation levels cached as a reader would leave them.
// Like mutate-mix, it compacts every 64 batches (512 ops), untimed.
func BenchmarkPublish(b *testing.B) {
	e := env(b)
	g := e.KB.Graph
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{AvgDistance: e.Eng.AvgDistance()})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewMutator(wikisearch.MutatorOptions{CompactAfterOps: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if _, err := eng.Search(context.Background(), wikisearch.Query{Text: queries(b, 3)[0], TopK: 5}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	baseNode := func() wikisearch.NodeID { return wikisearch.NodeID(rng.Intn(g.NumNodes())) }
	rel := g.RelName(0)
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	var prev [2]wikisearch.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			_, err := m.Compact()
			must(err)
			b.StartTimer()
		}
		a, err := m.AddNode("live "+g.Label(baseNode()), "benchmark write stream")
		must(err)
		must(m.AddEdge(a, baseNode(), rel))
		must(m.AddEdge(baseNode(), a, rel))
		n2, err := m.AddNode("live "+g.Label(baseNode()), "benchmark write stream")
		must(err)
		must(m.AddEdge(n2, a, rel))
		v := baseNode()
		must(m.SetKeywords(v, g.Label(v)+" revised", g.Description(v)))
		edge := [2]wikisearch.NodeID{baseNode(), baseNode()}
		must(m.AddEdge(edge[0], edge[1], rel))
		if i > 0 {
			must(m.RemoveEdge(prev[0], prev[1], rel))
		} else {
			must(m.AddEdge(baseNode(), baseNode(), rel))
		}
		prev = edge
		_, err = m.Publish()
		must(err)
	}
}
