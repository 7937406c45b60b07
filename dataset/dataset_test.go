package dataset_test

import (
	"context"
	"strings"
	"testing"

	"wikisearch"
	"wikisearch/dataset"
)

func TestGenerateDatasetAndSearch(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "tiny-sim" || len(ds.Planted) != 11 {
		t.Fatalf("dataset = %q with %d planted queries", ds.Name, len(ds.Planted))
	}
	eng, err := wikisearch.NewEngine(ds.Graph, wikisearch.EngineOptions{DistanceSamplePairs: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(context.Background(), wikisearch.Query{Text: strings.Join(ds.Planted[0].Keywords, " "), TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers on planted query")
	}
	if _, err := dataset.Generate(dataset.Config{Preset: "nope"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
