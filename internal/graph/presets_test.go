package graph_test

import (
	"math/rand"
	"testing"

	"wikisearch/internal/gen"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// TestSampleAverageDistanceMatchesReferencePresets checks the parallel
// sampler against the serial oracle on the generated presets at 1, 2 and
// 3 workers: A and its deviation must be bit-identical.
func TestSampleAverageDistanceMatchesReferencePresets(t *testing.T) {
	cases := []struct {
		cfg   gen.Config
		pairs int
	}{
		{gen.TinySim(), 2000},
		{gen.Wiki2017Sim(), 300},
	}
	for _, c := range cases {
		g := gen.Generate(c.cfg).Graph
		want := graph.ReferenceSampleAverageDistance(g, c.pairs, rand.New(rand.NewSource(1)))
		for _, workers := range []int{1, 2, 3} {
			pool := parallel.NewPool(workers)
			got := graph.SampleAverageDistance(g, c.pairs, rand.New(rand.NewSource(1)), pool)
			pool.Close()
			if got != want {
				t.Errorf("%s, %d workers: sample = %+v, oracle %+v", c.cfg.Name, workers, got, want)
			}
		}
	}
}
