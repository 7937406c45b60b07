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
// The two-stage search is lock-free and runs on a multi-core worker pool
// (CPU-Par), or sequentially. This package is the engine: search, live
// mutation, save and load. Two packages serve other audiences and build on
// it: wikisearch/dataset generates synthetic knowledge graphs and imports
// RDF N-Triples and Wikidata dumps, and wikisearch/paper holds the paper's
// comparison systems — a lock-based dynamic-memory variant (CPU-Par-d), a
// simulated SIMT device (GPU-Par), both returning identical results, and
// the BANKS-I/II and exact GST baselines — which run through
// Engine.SearchWith.
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
// Search is the one search path the service serves. Concurrent searches
// each run on their own pooled search state; one search parallelizes
// across Query.Threads workers, the paper's Tnum (§V-B).
package wikisearch
