package wikisearch_test

import (
	"context"
	"fmt"
	"strings"

	"wikisearch"
)

// ExampleEngine_Search builds a minimal knowledge graph and runs a keyword
// query; the top answer is the Central Graph connecting all keywords.
func ExampleEngine_Search() {
	b := wikisearch.NewBuilder()
	sql := b.AddNode("SQL", "query language for relational databases")
	hub := b.AddNode("Query language", "")
	sparql := b.AddNode("SPARQL", "RDF query language")
	xq := b.AddNode("XQuery", "XML query language")
	b.AddEdgeNamed(sql, hub, "instance of")
	b.AddEdgeNamed(sparql, hub, "instance of")
	b.AddEdgeNamed(xq, hub, "instance of")
	g, _ := b.Build()

	eng, _ := wikisearch.NewEngine(g, wikisearch.EngineOptions{AvgDistance: 2})
	res, _ := eng.Search(context.Background(), wikisearch.Query{Text: "xml rdf sql", TopK: 1})

	a := res.Answers[0]
	fmt.Println("central:", a.CentralLabel)
	for _, n := range a.Nodes[1:] {
		fmt.Printf("%s {%s}\n", n.Label, strings.Join(n.Keywords, ","))
	}
	// Output:
	// central: Query language
	// SQL {sql}
	// SPARQL {rdf}
	// XQuery {xml}
}
