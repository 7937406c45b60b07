// RDF import scenario: load a small N-Triples snippet — the export format
// of Wikidata, Freebase and Yago (§I: these knowledge graphs "can all be
// represented in an RDF graph") — and search it. This is the path a user
// with real RDF data takes: dataset.ImportNTriples → NewEngine → Search.
//
// Run with: go run ./examples/rdf
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"wikisearch"
	"wikisearch/dataset"
)

// A hand-written Wikidata-flavored snippet around query languages.
const triples = `
<http://kb/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "SQL"@en .
<http://kb/Q1> <http://schema.org/description> "query language for relational databases" .
<http://kb/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "SPARQL"@en .
<http://kb/Q2> <http://schema.org/description> "RDF query language" .
<http://kb/Q3> <http://www.w3.org/2000/01/rdf-schema#label> "XQuery"@en .
<http://kb/Q3> <http://schema.org/description> "XML query language" .
<http://kb/Q4> <http://www.w3.org/2000/01/rdf-schema#label> "query language"@en .
<http://kb/Q5> <http://www.w3.org/2000/01/rdf-schema#label> "RDF"@en .
<http://kb/Q6> <http://www.w3.org/2000/01/rdf-schema#label> "XPath"@en .
<http://kb/Q1> <http://kb/prop/instanceOf> <http://kb/Q4> .
<http://kb/Q2> <http://kb/prop/instanceOf> <http://kb/Q4> .
<http://kb/Q3> <http://kb/prop/instanceOf> <http://kb/Q4> .
<http://kb/Q6> <http://kb/prop/instanceOf> <http://kb/Q4> .
<http://kb/Q2> <http://kb/prop/designedFor> <http://kb/Q5> .
<http://kb/Q6> <http://kb/prop/relatedTo> <http://kb/Q3> .
<http://kb/Q1> <http://kb/prop/appearedIn> "1974"^^<http://www.w3.org/2001/XMLSchema#gYear> .
`

func main() {
	g, stats, err := dataset.ImportNTriples(strings.NewReader(triples))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d triples: %d edges, %d labels, %d descriptions (%d literals skipped)\n",
		stats.Triples, stats.Edges, stats.Labels, stats.Descs, stats.SkippedLits)
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Search(context.Background(), wikisearch.Query{Text: "xml rdf sql", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q → %d answers (d=%d)\n", "xml rdf sql", len(res.Answers), res.Depth)
	for i := range res.Answers {
		a := &res.Answers[i]
		fmt.Printf("  %d. [%.4f] central %q\n", i+1, a.Score, a.CentralLabel)
		for _, n := range a.Nodes {
			kw := ""
			if len(n.Keywords) > 0 {
				kw = " {" + strings.Join(n.Keywords, ",") + "}"
			}
			fmt.Printf("       %s%s\n", n.Label, kw)
		}
	}
}
