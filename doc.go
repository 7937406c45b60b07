// Package wikisearch is a parallel keyword search engine for knowledge
// graphs, reproducing "An Efficient Parallel Keyword Search Engine on
// Knowledge Graphs" (Yang, Agrawal, Jagadish, Tung, Wu — ICDE 2019).
//
// Instead of approximating Group Steiner Trees, the engine answers a
// keyword query with Central Graphs: for each keyword a BFS instance starts
// from every node containing it, all instances expanding in lockstep; a
// node hit by every instance is a Central Node, and the union of the
// hitting paths into it is its Central Graph — a graph-shaped answer that
// admits cycles and multiple paths per keyword. A degree-of-summary node
// weight delays uninformative hub nodes ("human", "conference") through a
// minimum activation level tunable at query time (α), answers are pruned by
// a keyword-co-occurrence level-cover strategy and ranked by
// S(C) = d(C)^λ·Σw.
//
// The two-stage search is lock-free and runs sequentially, on a multi-core
// worker pool (CPU-Par), on a lock-based dynamic-memory baseline
// (CPU-Par-d), or on a simulated SIMT device (GPU-Par); all variants return
// identical results. BANKS-I and BANKS-II baselines are included for
// comparison.
//
// Basic usage:
//
//	eng, err := wikisearch.LoadEngine("wiki2018-sim.wskb", wikisearch.EngineOptions{})
//	if err != nil { ... }
//	res, err := eng.Search(ctx, wikisearch.Query{Text: "sql rdf knowledge base"})
//	for _, a := range res.Answers {
//		fmt.Println(a.CentralLabel, a.Score)
//	}
//
// Search is the single entry point for every variant (Query.Variant selects
// CPUPar, Sequential, GPU, the lock-based CPU-Par-d, or the ExactGST and
// BANKS baselines). Concurrent searches each run on their own pooled
// search state; one search parallelizes across Query.Threads workers, the
// paper's Tnum (§V-B).
package wikisearch
