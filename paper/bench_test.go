package paper_test

// The comparison systems' side of the §VI benchmarks in the root
// bench_test.go, on the same wiki2017-sim environment.
//
// Run with: go test -bench=. -benchmem ./paper

import (
	"context"
	"strings"
	"sync"
	"testing"

	"wikisearch"
	"wikisearch/internal/bench"
	"wikisearch/internal/eval"
	"wikisearch/internal/graph"
	"wikisearch/paper"
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

// searchBench times one Central Graph comparator over the workload of knum
// keywords.
func searchBench(b *testing.B, search func(context.Context, *wikisearch.Engine, wikisearch.Query) (*wikisearch.Result, error), knum, topk int, alpha float64, threads int) {
	e := env(b)
	qs := queries(b, knum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search(context.Background(), e.Eng, wikisearch.Query{
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

// BenchmarkExp1VaryKnum* — Fig. 6/7 series at the default Knum=6.

func BenchmarkExp1VaryKnumGPUPar(b *testing.B) {
	searchBench(b, paper.GPUPar, 6, 20, 0.1, 4)
}

func BenchmarkExp1VaryKnumCPUParDynamic(b *testing.B) {
	searchBench(b, paper.CPUParD, 6, 20, 0.1, 4)
}

func BenchmarkExp1VaryKnumBANKS2(b *testing.B) {
	e := env(b)
	qs := queries(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.BANKS(e.Eng, wikisearch.Query{Text: qs[i%len(qs)], TopK: 20}, true, e.Cfg.BanksMaxVisits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12EffectivenessBANKS — the BANKS-II side of Fig. 11/12.
func BenchmarkFig12EffectivenessBANKS(b *testing.B) {
	e := env(b)
	p := &e.KB.Planted[3]
	oracle := eval.NewOracle(p, e.Ix)
	q := strings.Join(p.Keywords, " ")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.BANKS(e.Eng, wikisearch.Query{Text: q, TopK: 20}, true, e.Cfg.BanksMaxVisits)
		if err != nil {
			b.Fatal(err)
		}
		sets := make([][]graph.NodeID, 0, len(res.Trees))
		for j := range res.Trees {
			sets = append(sets, res.Trees[j].Nodes)
		}
		_ = oracle.PrecisionAtK(sets, 20)
	}
}
