package dataset

import (
	"io"

	"wikisearch/internal/graph"
	"wikisearch/internal/ntriples"
	"wikisearch/internal/wikidata"
)

// NTriplesStats summarizes an RDF import.
type NTriplesStats = ntriples.Stats

// WikidataStats summarizes a Wikidata JSON dump import.
type WikidataStats = wikidata.Stats

// ImportNTriples reads an RDF N-Triples stream (the export format of
// Wikidata, Freebase, Yago and most triple stores) and builds a searchable
// knowledge graph: object-property triples become labeled edges,
// rdfs:label / skos:prefLabel / schema:name literals become node labels,
// and schema:description / rdfs:comment literals become descriptions.
func ImportNTriples(r io.Reader) (*graph.Graph, NTriplesStats, error) {
	im := ntriples.NewImporter()
	if err := im.Read(r); err != nil {
		return nil, NTriplesStats{}, err
	}
	return im.Build()
}

// ImportWikidataJSON reads a Wikidata JSON entity dump (the array-per-line
// layout of dumps.wikimedia.org, or JSON-Lines) and builds a searchable
// knowledge graph: items become nodes with their English labels and
// descriptions, entity-valued statements become edges, and property
// entities name the relationship types.
func ImportWikidataJSON(r io.Reader) (*graph.Graph, WikidataStats, error) {
	return wikidata.ImportJSON(r)
}

// ImportWikidataFile imports a dump file, transparently decompressing
// ".gz" — `wikigen -import dump.json.gz` uses this path.
func ImportWikidataFile(path string) (*graph.Graph, WikidataStats, error) {
	return wikidata.ImportFile(path)
}
