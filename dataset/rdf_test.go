package dataset_test

import (
	"context"
	"strings"
	"testing"

	"wikisearch"
	"wikisearch/dataset"
)

func TestImportNTriplesPublic(t *testing.T) {
	const nt = `<http://kb/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "SPARQL" .
<http://kb/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "RDF" .
<http://kb/Q1> <http://kb/p/designedFor> <http://kb/Q2> .
`
	g, st, err := dataset.ImportNTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != 3 || st.Edges != 1 || st.Labels != 2 {
		t.Fatalf("stats = %+v", st)
	}
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{DistanceSamplePairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(context.Background(), wikisearch.Query{Text: "sparql rdf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers on imported RDF graph")
	}
	if _, _, err := dataset.ImportNTriples(strings.NewReader("garbage line\n")); err == nil {
		t.Fatal("malformed N-Triples accepted")
	}
}

func TestImportWikidataJSONPublic(t *testing.T) {
	const dump = `[
{"type":"item","id":"Q1","labels":{"en":{"value":"SPARQL"}},"descriptions":{"en":{"value":"RDF query language"}},"claims":{"P31":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"wikibase-entityid","value":{"id":"Q2"}}}}]}},
{"type":"item","id":"Q2","labels":{"en":{"value":"query language"}}},
{"type":"property","id":"P31","labels":{"en":{"value":"instance of"}}},
]`
	g, st, err := dataset.ImportWikidataJSON(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if st.Entities != 2 || st.Properties != 1 || st.Edges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	eng, err := wikisearch.NewEngine(g, wikisearch.EngineOptions{DistanceSamplePairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(context.Background(), wikisearch.Query{Text: "sparql query language"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers on imported Wikidata graph")
	}
	if _, _, err := dataset.ImportWikidataJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("malformed dump accepted")
	}
	if _, _, err := dataset.ImportWikidataFile("/nonexistent/dump.json"); err == nil {
		t.Fatal("missing dump file accepted")
	}
}
