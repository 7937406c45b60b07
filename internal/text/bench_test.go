package text

import (
	"fmt"
	"runtime"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

func BenchmarkStem(b *testing.B) {
	words := []string{
		"relational", "databases", "internationalization", "mining",
		"supervised", "classification", "retrieval", "gradient", "sky",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Stem(words[i%len(words)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	const s = "An Efficient Parallel Keyword Search Engine on Knowledge Graphs (ICDE 2019)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(s)
	}
}

func BenchmarkNormalize(b *testing.B) {
	const s = "the statistical relational learning of knowledge graphs and databases"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Normalize(s)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	gb := graph.NewBuilder()
	for i := 0; i < 2000; i++ {
		gb.AddNode(fmt.Sprintf("entity %d keyword search engine", i), "knowledge graph node")
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.NewPool(workers)
			defer pool.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = BuildIndex(g, pool)
			}
		})
	}
}
