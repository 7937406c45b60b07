// Answer-model comparison: Central Graphs vs BANKS-II trees on one query,
// side by side — the paper's §I/§VI-B argument made concrete. Graph-shaped
// answers admit multiple nodes per keyword and carry co-occurrence nodes;
// tree answers split phrases across nodes and repeat each other.
//
// Run with: go run ./examples/comparison
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"wikisearch"
	"wikisearch/dataset"
	"wikisearch/paper"
)

func main() {
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim"})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(ds.Graph, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Use a planted effectiveness query so the ground truth is known.
	var planted *dataset.PlantedQuery
	for i := range ds.Planted {
		if ds.Planted[i].ID == "Q4" {
			planted = &ds.Planted[i]
		}
	}
	query := strings.Join(planted.Keywords, " ")
	cores := map[wikisearch.NodeID]bool{}
	for _, c := range planted.Cores {
		cores[c] = true
	}
	fmt.Printf("query %s: %q  (%d planted relevant cores)\n\n", planted.ID, query, len(planted.Cores))

	fmt.Println("--- Central Graphs (WikiSearch) ---")
	res, err := eng.Search(context.Background(), wikisearch.Query{Text: query, TopK: 5})
	if err != nil {
		log.Fatal(err)
	}
	for i := range res.Answers {
		a := &res.Answers[i]
		rel := ""
		for _, n := range a.Nodes {
			if cores[n.ID] {
				rel = "  [contains planted core → relevant]"
				break
			}
		}
		fmt.Printf("%d. [%.4f] %s (depth %d, %d nodes)%s\n",
			i+1, a.Score, a.CentralLabel, a.Depth, len(a.Nodes), rel)
		// Show multi-keyword nodes — the co-occurrence the level-cover keeps.
		for _, n := range a.Nodes {
			if len(n.Keywords) >= 2 {
				fmt.Printf("     co-occurrence node: %q {%s}\n", n.Label, strings.Join(n.Keywords, ", "))
			}
		}
	}

	fmt.Println("\n--- BANKS-II trees ---")
	bres, err := paper.BANKS(eng, wikisearch.Query{Text: query, TopK: 5}, true, 50000)
	if err != nil {
		log.Fatal(err)
	}
	prev := map[wikisearch.NodeID]bool{}
	for i, t := range bres.Trees {
		rel := ""
		overlap := 0
		for _, n := range t.Nodes {
			if cores[n] {
				rel = "  [relevant]"
			}
			if prev[n] {
				overlap++
			}
			prev[n] = true
		}
		fmt.Printf("%d. [%.3f] rooted at %q (%d nodes, %d shared with earlier trees)%s\n",
			i+1, t.Score, eng.Graph().Label(t.Root), len(t.Nodes), overlap, rel)
	}
	fmt.Printf("\nBANKS-II visited %d nodes; WikiSearch total %v.\n", bres.Visited, res.Total)
}
