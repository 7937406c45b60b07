package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wikisearch/internal/parallel"
)

func benchGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	gb := NewBuilder()
	for i := 0; i < n; i++ {
		gb.AddNode(fmt.Sprintf("n%d", i), "")
	}
	r := gb.Rel("e")
	for i := 0; i < m; i++ {
		gb.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), r)
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBuildCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n, m = 10000, 60000
	from := make([]NodeID, m)
	to := make([]NodeID, m)
	for i := range from {
		from[i] = NodeID(rng.Intn(n))
		to[i] = NodeID(rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := NewBuilder()
		for j := 0; j < n; j++ {
			gb.AddNode("x", "")
		}
		r := gb.Rel("e")
		for j := 0; j < m; j++ {
			gb.AddEdge(from[j], to[j], r)
		}
		if _, err := gb.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForEachNeighbor(b *testing.B) {
	g := benchGraph(b, 10000, 80000)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NodeID(i % g.NumNodes())
		g.ForEachNeighbor(v, func(n NodeID, _ RelID, _ bool) { sink += int64(n) })
	}
	_ = sink
}

// BenchmarkSampleAverageDistance times one full 2,000-pair sample (the
// engine's default) on one worker and on GOMAXPROCS workers.
func BenchmarkSampleAverageDistance(b *testing.B) {
	g := benchGraph(b, 20000, 160000)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.NewPool(workers)
			defer pool.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = SampleAverageDistance(g, 2000, rand.New(rand.NewSource(3)), pool)
			}
		})
	}
}
