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

// BenchmarkBuildCSR times Builder.Build on a uniform random graph and on a hub-heavy multigraph (oracleEdges: repeated
// and parallel edges, self-loops, 300 relations, one hub with 120k
// in-edges), with Build on one worker and on GOMAXPROCS workers. The
// reference rows time referenceBuildCSR, one comparison sort per list, on
// the same edges.
func BenchmarkBuildCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	uniform := func() (int, []NodeID, []NodeID, []RelID) {
		const n, m = 10000, 60000
		from, to, rel := make([]NodeID, m), make([]NodeID, m), make([]RelID, m)
		for i := range from {
			from[i], to[i] = NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		}
		return n, from, to, rel
	}
	hub := func() (int, []NodeID, []NodeID, []RelID) {
		const n = 100000
		from, to, rel := oracleEdges(rng, n, 600000, 300, 120000)
		return n, from, to, rel
	}
	for _, shape := range []struct {
		name  string
		edges func() (int, []NodeID, []NodeID, []RelID)
	}{{"uniform", uniform}, {"hub-multigraph", hub}} {
		n, from, to, rel := shape.edges()
		gb := NewBuilder()
		for j := 0; j < n; j++ {
			gb.AddNode("x", "")
		}
		for j := range from {
			gb.AddEdge(from[j], to[j], rel[j])
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := gb.build(workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(shape.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceBuildCSR(n, len(from), from, to, rel)
				referenceBuildCSR(n, len(from), to, from, rel)
			}
		})
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
