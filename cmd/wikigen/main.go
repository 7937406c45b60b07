// Command wikigen generates a synthetic Wikidata-like knowledge base,
// computes its degree-of-summary weights, and writes a binary dump that
// cmd/wikisearch and cmd/wikiserve load.
//
// Usage:
//
//	wikigen -preset wiki2017-sim -out wiki2017-sim.wskb
//	wikigen -nodes 500000 -avg-degree 9 -seed 99 -out big.wskb
//	wikigen -import wikidata-dump.json.gz -out wikidata.wskb
//	wikigen -import-nt export.nt -out kb.wskb
//
// The dump is always in the mmap-able layout (file version 4).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wikisearch"
	"wikisearch/dataset"
)

func main() {
	var (
		preset   = flag.String("preset", "wiki2017-sim", "dataset preset: wiki2017-sim, wiki2018-sim, tiny-sim, or empty for custom")
		out      = flag.String("out", "", "output dump path (default <preset>.wskb when generating; required with -import and -import-nt)")
		nodes    = flag.Int("nodes", 0, "override node count")
		degree   = flag.Float64("avg-degree", 0, "override average degree")
		vocab    = flag.Int("vocab", 0, "override vocabulary size")
		seed     = flag.Int64("seed", 0, "override generation seed")
		name     = flag.String("name", "", "override dataset name")
		importWD = flag.String("import", "", "import a Wikidata JSON dump (.json or .json.gz) instead of generating")
		importNT = flag.String("import-nt", "", "import an RDF N-Triples file instead of generating")
	)
	flag.Parse()

	// Only a generated dump has a default name: an import without -out
	// would otherwise write over <preset>.wskb.
	for _, src := range []struct{ flag, val string }{
		{"-import", *importWD}, {"-import-nt", *importNT},
	} {
		if src.val != "" && *out == "" {
			fatal(fmt.Errorf("%s requires -out", src.flag))
		}
	}

	var (
		g      *wikisearch.Graph
		dsName string
	)
	t0 := time.Now()
	switch {
	case *importWD != "":
		gr, st, err := dataset.ImportWikidataFile(*importWD)
		if err != nil {
			fatal(err)
		}
		g, dsName = gr, *importWD
		fmt.Printf("imported %s: %d entities, %d properties, %d/%d claims as edges (%d skipped, %d dangling) in %v\n",
			*importWD, st.Entities, st.Properties, st.Edges, st.Claims, st.Skipped, st.Dangling,
			time.Since(t0).Round(time.Millisecond))
	case *importNT != "":
		f, err := os.Open(*importNT)
		if err != nil {
			fatal(err)
		}
		gr, st, err := dataset.ImportNTriples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		g, dsName = gr, *importNT
		fmt.Printf("imported %s: %d triples, %d edges, %d labels in %v\n",
			*importNT, st.Triples, st.Edges, st.Labels, time.Since(t0).Round(time.Millisecond))
	default:
		ds, err := dataset.Generate(dataset.Config{
			Preset:             *preset,
			Name:               *name,
			Nodes:              *nodes,
			AvgDegree:          *degree,
			VocabSize:          *vocab,
			Seed:               *seed,
			PlantEffectiveness: true,
		})
		if err != nil {
			fatal(err)
		}
		g, dsName = ds.Graph, ds.Name
		fmt.Printf("generated %s: %d nodes, %d edges in %v\n",
			ds.Name, g.NumNodes(), g.NumEdges(), time.Since(t0).Round(time.Millisecond))
	}
	if *name != "" {
		dsName = *name
	}

	t0 = time.Now()
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{})
	if err != nil {
		fatal(err)
	}
	eng.SetName(dsName)
	fmt.Printf("prepared engine in %v: A=%.2f (±%.2f), %d keywords\n",
		time.Since(t0).Round(time.Millisecond), eng.AvgDistance(), eng.DistanceDeviation(), eng.VocabSize())

	path := *out
	if path == "" {
		path = *preset + ".wskb"
	}
	if err := eng.Save(path); err != nil {
		fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.1f MB)\n", path, float64(st.Size())/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wikigen:", err)
	os.Exit(1)
}
