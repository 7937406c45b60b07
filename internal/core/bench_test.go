package core

import (
	"fmt"
	"math/rand"
	"testing"

	"wikisearch/internal/device"
	"wikisearch/internal/graph"
)

// benchScenario builds a mid-size random scenario once per benchmark.
func benchScenario(b testing.TB) (Input, Params) {
	return benchScenarioSized(b, 20)
}

// benchScenarioSized is benchScenario with perKeyword source nodes per
// keyword: more sources make a level identify more Central Nodes at once.
func benchScenarioSized(b testing.TB, perKeyword int) (Input, Params) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	const n, m = 20000, 120000
	gb := graph.NewBuilder()
	for i := 0; i < n; i++ {
		gb.AddNode(fmt.Sprintf("n%d", i), "")
	}
	rels := []graph.RelID{gb.Rel("a"), gb.Rel("b"), gb.Rel("c")}
	for i := 0; i < m; i++ {
		gb.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rels[rng.Intn(3)])
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	levels := make([]uint8, n)
	weights := make([]float64, n)
	for i := range levels {
		levels[i] = uint8(rng.Intn(4))
		weights[i] = rng.Float64()
	}
	q := 4
	sources := make([][]graph.NodeID, q)
	for i := range sources {
		for len(sources[i]) < perKeyword {
			sources[i] = append(sources[i], graph.NodeID(rng.Intn(n)))
		}
	}
	terms := make([]string, q)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	in := Input{G: g, Weights: weights, Levels: levels, Terms: terms, Sources: sources}
	return in, Params{TopK: 20, Threads: 4, MaxLevel: 16}
}

// BenchmarkSearchLockFree measures the lock-free two-stage search (the
// paper's CPU-Par) end to end.
func BenchmarkSearchLockFree(b *testing.B) {
	in, p := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(in, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDynamicLocked measures the lock-based CPU-Par-d variant —
// the paper's Exp-1 lock-free-vs-locked comparison in microcosm.
func BenchmarkSearchDynamicLocked(b *testing.B) {
	in, p := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchDynamic(in, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchGPUSimulated measures the SIMT-mapped variant.
func BenchmarkSearchGPUSimulated(b *testing.B) {
	in, p := benchScenario(b)
	dev := device.GTX1080Ti()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchGPU(in, p, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSequential is the Tnum=1 baseline of Fig. 9/10.
func BenchmarkSearchSequential(b *testing.B) {
	in, p := benchScenario(b)
	p.Threads = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(in, p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkKernel measures the kernel path only (state reset + bottom-up
// stage) on a warm reusable state, reporting the true edge-scan throughput.
// With -benchmem, allocs/op must read 0 — the zero-allocation steady state.
func benchmarkKernel(b *testing.B, ss *SearchState, threads int) {
	in, p := benchScenario(b)
	p.Threads = threads
	defer ss.Close()
	if _, err := ss.BottomUp(in, p); err != nil { // warm buffers and workers
		b.Fatal(err)
	}
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		if _, err := ss.BottomUp(in, p); err != nil {
			b.Fatal(err)
		}
		edges += ss.Profile().EdgesScanned
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(edges)/s, "edges/s")
	}
}

// BenchmarkExpandFlat: the flattened one-pass-per-node expansion kernel.
func BenchmarkExpandFlat(b *testing.B) {
	for _, tn := range []int{1, 4} {
		b.Run(fmt.Sprintf("Tnum=%d", tn), func(b *testing.B) { benchmarkKernel(b, NewSearchState(), tn) })
	}
}

// BenchmarkExpandReference: the original per-keyword-column kernel shape,
// the comparison point for the flat kernel's speedup.
func BenchmarkExpandReference(b *testing.B) {
	for _, tn := range []int{1, 4} {
		b.Run(fmt.Sprintf("Tnum=%d", tn), func(b *testing.B) { benchmarkKernel(b, newReferenceState(), tn) })
	}
}

// giantScenario is a query whose single Central Graph fills the default
// MaxGraphNodes: two keyword sources joined by 5000 parallel two-hop paths,
// every midpoint a Central Node candidate's parent.
func giantScenario(b testing.TB) (Input, Params) {
	b.Helper()
	gb := graph.NewBuilder()
	s0 := gb.AddNode("s0", "")
	s1 := gb.AddNode("s1", "")
	hub := gb.AddNode("hub", "")
	r := gb.Rel("e")
	for i := 0; i < 5000; i++ {
		a := gb.AddNode("a", "")
		c := gb.AddNode("c", "")
		gb.AddEdge(s0, a, r)
		gb.AddEdge(a, hub, r)
		gb.AddEdge(s1, c, r)
		gb.AddEdge(c, hub, r)
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	in := Input{G: g, Weights: make([]float64, n), Levels: make([]uint8, n),
		Terms: []string{"t0", "t1"}, Sources: [][]graph.NodeID{{s0}, {s1}}}
	return in, Params{TopK: 1, Threads: 1, MaxLevel: 16}
}

// BenchmarkTopDown measures stage two alone on a warm state: ≥ 500 Central
// Graphs scored, k = 20 assembled. The after-giant variant first runs one
// search whose extraction fills MaxGraphNodes on the same state — retained
// scratch must not make the small extractions that follow any slower. With
// -benchmem, allocs/op is what the ≤ k answers cost, not the candidates.
func BenchmarkTopDown(b *testing.B) {
	for _, giantFirst := range []bool{false, true} {
		name := "warm"
		if giantFirst {
			name = "after-giant"
		}
		b.Run(name, func(b *testing.B) {
			ss := NewSearchState()
			defer ss.Close()
			if giantFirst {
				gin, gp := giantScenario(b)
				res, err := ss.Search(gin, gp)
				if err != nil {
					b.Fatal(err)
				}
				if res.Profile.TruncatedGraphs == 0 {
					b.Fatal("giant scenario did not reach the cap")
				}
			}
			in, p := benchScenarioSized(b, 5)
			p.Threads = 1
			if _, err := ss.BottomUp(in, p); err != nil {
				b.Fatal(err)
			}
			s := &ss.st
			if n := len(s.gr.centrals); n < 500 {
				b.Fatalf("%d centrals, want ≥ 500", n)
			}
			if _, err := s.topDown(); err != nil { // warm the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.topDown(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(s.gr.centrals)), "centrals")
		})
	}
}
