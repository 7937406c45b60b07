// Academic-search scenario: the paper's motivating workload — researchers
// issuing topic-phrase queries (AAAI-keyword style) against a large
// bibliographic knowledge base. Generates a synthetic KB, runs several
// multi-keyword queries with all execution variants, and shows that the
// lock-free parallel search returns the same answers at a fraction of
// BANKS-II's cost.
//
// Run with: go run ./examples/academic
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wikisearch"
	"wikisearch/dataset"
	"wikisearch/paper"
)

func main() {
	fmt.Println("generating wiki2017-sim (≈60k nodes, ≈500k edges)...")
	ds, err := dataset.Generate(dataset.Config{Preset: "wiki2017-sim"})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(ds.Graph, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ready: %d nodes, %d edges, A=%.2f, %d keywords\n\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges(), eng.AvgDistance(), eng.VocabSize())

	queries := []string{
		"statistical relational learning inference",
		"database indexing ranking search",
		"supervised learning gradient descent machine translation",
	}
	for _, q := range queries {
		fmt.Printf("query: %q\n", q)

		// Central Graph search, parallel lock-free.
		res, err := eng.Search(context.Background(), wikisearch.Query{Text: q, TopK: 5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  CPU-Par:  %8v  d=%d  candidates=%d\n",
			res.Total.Round(time.Microsecond), res.Depth, res.Candidates)
		for i := range res.Answers {
			a := &res.Answers[i]
			fmt.Printf("    %d. [%.4f] %s  (%d nodes", i+1, a.Score, a.CentralLabel, len(a.Nodes))
			if a.PrunedNodes > 0 {
				fmt.Printf(", %d pruned by level-cover", a.PrunedNodes)
			}
			fmt.Println(")")
		}

		// Same query through the lock-based dynamic variant: identical
		// answers, slower expansion.
		resD, err := paper.CPUParD(context.Background(), eng, wikisearch.Query{Text: q, TopK: 5})
		if err != nil {
			log.Fatal(err)
		}
		same := len(resD.Answers) == len(res.Answers)
		for i := range resD.Answers {
			if !same || resD.Answers[i].Central != res.Answers[i].Central {
				same = false
				break
			}
		}
		fmt.Printf("  CPU-Par-d: %8v  identical answers: %v\n",
			resD.Total.Round(time.Microsecond), same)

		// BANKS-II baseline, visit-capped.
		t0 := time.Now()
		bres, err := paper.BANKS(eng, wikisearch.Query{Text: q, TopK: 5}, true, 100000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  BANKS-II: %8v  %d trees (%d nodes visited)\n",
			time.Since(t0).Round(time.Microsecond), len(bres.Trees), bres.Visited)
		if len(bres.Trees) > 0 {
			fmt.Printf("    best: [%.3f] rooted at %q\n", bres.Trees[0].Score, bres.Trees[0].RootLabel)
		}
		fmt.Println()
	}
}
