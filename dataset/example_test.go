package dataset_test

import (
	"fmt"
	"strings"

	"wikisearch/dataset"
)

// ExampleImportNTriples loads RDF data and reports what was imported.
func ExampleImportNTriples() {
	const nt = `<http://kb/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "SPARQL" .
<http://kb/Q1> <http://kb/p/designedFor> <http://kb/Q2> .
<http://kb/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "RDF" .
`
	g, stats, _ := dataset.ImportNTriples(strings.NewReader(nt))
	fmt.Printf("%d nodes, %d edges, %d labels\n", g.NumNodes(), g.NumEdges(), stats.Labels)
	// Output:
	// 2 nodes, 1 edges, 2 labels
}
