package text_test

import (
	"reflect"
	"testing"

	"wikisearch/internal/gen"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
)

// TestBuildIndexMatchesReferencePresets checks the chunk-parallel build
// against the serial oracle on the generated presets at 1, 2 and 3 workers.
func TestBuildIndexMatchesReferencePresets(t *testing.T) {
	for _, cfg := range []gen.Config{gen.TinySim(), gen.Wiki2017Sim()} {
		g := gen.Generate(cfg).Graph
		wantNames, wantPostings := text.ReferenceBuildIndex(g).Export()
		for _, workers := range []int{1, 2, 3} {
			pool := parallel.NewPool(workers)
			names, postings := text.BuildIndex(g, pool).Export()
			pool.Close()
			if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(postings, wantPostings) {
				t.Errorf("%s, %d workers: Export differs from the oracle", cfg.Name, workers)
			}
		}
	}
}
