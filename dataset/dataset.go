// Package dataset makes knowledge graphs for the engine: the synthetic
// stand-ins for the paper's Wikidata dumps (see DESIGN.md), and importers
// for RDF N-Triples and Wikidata JSON dumps. The engine itself, in the root
// package wikisearch, neither imports nor needs it.
package dataset

import (
	"fmt"

	"wikisearch/internal/gen"
)

// Config selects or customizes a synthetic knowledge-base generation.
type Config struct {
	// Preset selects a built-in configuration: "wiki2017-sim",
	// "wiki2018-sim" or "tiny-sim". Empty means fully custom.
	Preset string
	// Name overrides the dataset name.
	Name string
	// Nodes / AvgDegree / VocabSize override the preset when > 0.
	Nodes     int
	AvgDegree float64
	VocabSize int
	// Seed overrides the preset seed when != 0.
	Seed int64
	// PlantEffectiveness adds the Q1–Q11 ground-truth plantings.
	PlantEffectiveness bool
}

// PlantedQuery is a generated effectiveness query with its ground truth:
// an answer is relevant iff it contains one of Cores.
type PlantedQuery = gen.PlantedQuery

// Dataset is a generated knowledge base: its graph plus the effectiveness
// ground truth in Planted.
type Dataset = gen.KB

// Generate builds a synthetic Wikidata-like knowledge base. Generation is
// deterministic in the seed.
func Generate(c Config) (*Dataset, error) {
	cfg, err := gen.Preset(c.Preset)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if c.Name != "" {
		cfg.Name = c.Name
	}
	if c.Nodes > 0 {
		cfg.Nodes = c.Nodes
	}
	if c.AvgDegree > 0 {
		cfg.AvgDegree = c.AvgDegree
	}
	if c.VocabSize > 0 {
		cfg.VocabSize = c.VocabSize
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.PlantEffectiveness {
		cfg.PlantEffectiveness = true
	}
	return gen.Generate(cfg), nil
}
