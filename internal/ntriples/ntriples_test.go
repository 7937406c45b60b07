package ntriples

import (
	"fmt"
	"strings"
	"testing"

	"wikisearch/internal/graph"
)

const sample = `# a tiny Wikidata-flavored export
<http://example.org/Q1> <http://www.w3.org/2000/01/rdf-schema#label> "SPARQL"@en .
<http://example.org/Q1> <http://schema.org/description> "RDF query language" .
<http://example.org/Q1> <http://example.org/prop/instanceOf> <http://example.org/Q3> .
<http://example.org/Q2> <http://www.w3.org/2000/01/rdf-schema#label> "SQL" .
<http://example.org/Q2> <http://example.org/prop/instanceOf> <http://example.org/Q3> .
<http://example.org/Q3> <http://www.w3.org/2000/01/rdf-schema#label> "query language"@en .
<http://example.org/Q3> <http://www.w3.org/2000/01/rdf-schema#label> "langage de requête"@fr .
<http://example.org/Q1> <http://example.org/prop/population> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://example.org/prop/relatedTo> <http://example.org/Q1> .

<http://example.org/Q4> <http://schema.org/name> "escaped \"quote\" and é" .
`

func importSample(t *testing.T) (*Importer, Stats) {
	t.Helper()
	im := NewImporter()
	if err := im.Read(strings.NewReader(sample)); err != nil {
		t.Fatal(err)
	}
	return im, im.stats
}

func TestImportSample(t *testing.T) {
	im, st := importSample(t)
	if st.Triples != 10 {
		t.Fatalf("triples = %d, want 10", st.Triples)
	}
	if st.Edges != 3 {
		t.Fatalf("edges = %d, want 3", st.Edges)
	}
	if st.Labels != 4 || st.Descs != 1 {
		t.Fatalf("labels/descs = %d/%d", st.Labels, st.Descs)
	}
	if st.SkippedLang != 1 { // the French label
		t.Fatalf("skipped lang = %d", st.SkippedLang)
	}
	if st.SkippedLits != 1 { // the population integer
		t.Fatalf("skipped lits = %d", st.SkippedLits)
	}

	g, _, err := im.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Q1, Q2, Q3, blank b0, Q4 = 5 nodes.
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Labels resolved; English preferred; escapes decoded.
	wantLabels := map[string]bool{
		"SPARQL": true, "SQL": true, "query language": true,
		"escaped \"quote\" and é": true,
	}
	found := 0
	for v := 0; v < g.NumNodes(); v++ {
		if wantLabels[g.Label(int32(v))] {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("resolved %d/4 labels", found)
	}
	// The description survived.
	ok := false
	for v := 0; v < g.NumNodes(); v++ {
		if g.Description(int32(v)) == "RDF query language" {
			ok = true
		}
	}
	if !ok {
		t.Fatal("description lost")
	}
}

func TestRelationNamesFromPredicates(t *testing.T) {
	im, _ := importSample(t)
	g, _, err := im.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for r := 0; r < g.NumRels(); r++ {
		names[g.RelName(graph.RelID(r))] = true
	}
	if !names["instanceOf"] || !names["relatedTo"] {
		t.Fatalf("relation names = %v", names)
	}
}

func TestMalformedLines(t *testing.T) {
	bad := []string{
		`<http://a> <http://b> .`,                     // missing object
		`<http://a> <http://b> <http://c>`,            // missing dot
		`"literal" <http://b> <http://c> .`,           // literal subject
		`<http://a> _:blank <http://c> .`,             // blank predicate
		`<http://a> <http://b> "unterminated .`,       // unterminated literal
		`<http://a> <http://b> "x"@ .`,                // empty lang tag
		`<http://a <http://b> <http://c> .`,           // unterminated IRI
		`<http://a> <http://b> <http://c> . trailing`, // garbage
		`<http://a> <http://b> "bad \q escape" .`,     // unknown escape
		`<http://a> <http://b> "trunc \u12" .`,        // truncated \u
		`<http://a> <http://b> "x"^^not-an-iri .`,     // malformed datatype
		`_: <http://b> <http://c> .`,                  // empty blank label
	}
	for _, line := range bad {
		im := NewImporter()
		if err := im.Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted malformed line: %s", line)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	im := NewImporter()
	input := "# comment\n\n   \n<http://a> <http://b> <http://c> . # trailing comment\n"
	if err := im.Read(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if im.stats.Triples != 1 {
		t.Fatalf("triples = %d", im.stats.Triples)
	}
}

func TestUnescape(t *testing.T) {
	cases := map[string]string{
		`plain`:      "plain",
		`a\tb`:       "a\tb",
		`a\nb`:       "a\nb",
		`a\"b`:       `a"b`,
		`a\\b`:       `a\b`,
		`\u0041`:     "A",
		`\U0001F600`: "😀",
		`mix é end`:  "mix é end",
	}
	for in, want := range cases {
		got, err := unescape(in)
		if err != nil {
			t.Errorf("unescape(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("unescape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://example.org/path/Q42":    "Q42",
		"http://example.org/onto#Person": "Person",
		"plain":                          "plain",
		"http://example.org/trailing/":   "http://example.org/trailing/",
	}
	for in, want := range cases {
		if got := localName(in); got != want {
			t.Errorf("localName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestImportRelationLimit: a stream with more distinct predicates than a
// relation id holds is refused with an error naming the limit, not
// narrowed.
func TestImportRelationLimit(t *testing.T) {
	var sb strings.Builder
	for p := 0; p <= graph.MaxRels; p++ {
		fmt.Fprintf(&sb, "<http://example.org/a> <http://example.org/p%d> <http://example.org/b> .\n", p)
	}
	im := NewImporter()
	if err := im.Read(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := im.Build(); err == nil || !strings.Contains(err.Error(), "relation types exceed the limit of 65535") {
		t.Fatalf("err = %v, want the relation type limit", err)
	}
}
