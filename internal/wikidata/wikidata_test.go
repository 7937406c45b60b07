package wikidata

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wikisearch/internal/graph"
)

// sample mimics the standard dump layout: a JSON array, one entity per
// line, trailing commas.
const sample = `[
{"type":"item","id":"Q42","labels":{"en":{"language":"en","value":"Douglas Adams"},"fr":{"language":"fr","value":"Douglas Adams"}},"descriptions":{"en":{"language":"en","value":"English writer and humorist"}},"claims":{"P31":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"wikibase-entityid","value":{"entity-type":"item","numeric-id":5,"id":"Q5"}}}}],"P800":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"wikibase-entityid","value":{"entity-type":"item","id":"Q3107329"}}}}],"P569":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"time","value":{"time":"+1952-03-11T00:00:00Z"}}}}]}},
{"type":"item","id":"Q5","labels":{"en":{"language":"en","value":"human"}},"claims":{}},
{"type":"property","id":"P31","labels":{"en":{"language":"en","value":"instance of"}}},
{"type":"item","id":"Q571","labels":{"en":{"language":"en","value":"book"}},"claims":{"P31":[{"mainsnak":{"snaktype":"somevalue"}}]}},
]`

func importSample(t *testing.T) (*graph.Graph, Stats) {
	t.Helper()
	g, st, err := ImportJSON(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return g, st
}

func TestImportSample(t *testing.T) {
	g, st := importSample(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Entities != 3 || st.Properties != 1 {
		t.Fatalf("entities/properties = %d/%d", st.Entities, st.Properties)
	}
	// P31 Q5 edge + P800 dangling edge; time snak and somevalue skipped.
	if st.Edges != 2 {
		t.Fatalf("edges = %d, want 2", st.Edges)
	}
	if st.Skipped != 2 {
		t.Fatalf("skipped = %d, want 2", st.Skipped)
	}
	// Q3107329 referenced only: materialized as a dangling node.
	if st.Dangling != 1 {
		t.Fatalf("dangling = %d, want 1", st.Dangling)
	}
	// Q42, Q5, Q3107329, Q571 = 4 nodes.
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Text resolved (English only).
	labels := map[string]graph.NodeID{}
	for v := 0; v < g.NumNodes(); v++ {
		labels[g.Label(graph.NodeID(v))] = graph.NodeID(v)
	}
	adams, ok := labels["Douglas Adams"]
	if !ok {
		t.Fatalf("labels = %v", labels)
	}
	if g.Description(adams) != "English writer and humorist" {
		t.Fatalf("description = %q", g.Description(adams))
	}
	if _, ok := labels["human"]; !ok {
		t.Fatal("Q5 label missing")
	}
	if _, ok := labels["Q3107329"]; !ok {
		t.Fatal("dangling node should fall back to its id label")
	}
	// P31 resolved to its English name; P800 kept as id.
	relNames := map[string]bool{}
	for r := 0; r < g.NumRels(); r++ {
		relNames[g.RelName(graph.RelID(r))] = true
	}
	if !relNames["instance of"] || !relNames["P800"] {
		t.Fatalf("relations = %v", relNames)
	}
	// The instance-of edge lands on the human node.
	if !g.HasEdge(adams, labels["human"]) {
		t.Fatal("Q42 -instance of-> Q5 edge missing")
	}
}

func TestPropertyAfterUseStillResolves(t *testing.T) {
	// Property entity appears after the items that use it.
	input := `{"type":"item","id":"Q1","labels":{"en":{"value":"a"}},"claims":{"P9":[{"mainsnak":{"snaktype":"value","datavalue":{"type":"wikibase-entityid","value":{"id":"Q2"}}}}]}}
{"type":"item","id":"Q2","labels":{"en":{"value":"b"}}}
{"type":"property","id":"P9","labels":{"en":{"value":"part of"}}}`
	g, _, err := ImportJSON(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for r := 0; r < g.NumRels(); r++ {
		if g.RelName(graph.RelID(r)) == "part of" {
			found = true
		}
	}
	if !found {
		t.Fatal("late property label not applied")
	}
}

func TestMalformedEntity(t *testing.T) {
	for _, bad := range []string{
		`{not json}`,
		`{"type":"item"}`, // no id
	} {
		if _, _, err := ImportJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Unknown entity types are skipped, not fatal.
	_, st, err := ImportJSON(strings.NewReader(`{"type":"lexeme","id":"L1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 {
		t.Fatalf("skipped = %d", st.Skipped)
	}
}

func TestImportFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dump.json.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte(sample)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, st, err := ImportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || st.Edges != 2 {
		t.Fatalf("gzip import: %d nodes, %d edges", g.NumNodes(), st.Edges)
	}
	// Plain path too.
	plain := filepath.Join(dir, "dump.json")
	if err := os.WriteFile(plain, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ImportFile(plain); err != nil {
		t.Fatal(err)
	}
	// Missing file and bad gzip error out.
	if _, _, err := ImportFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	badgz := filepath.Join(dir, "bad.gz")
	if err := os.WriteFile(badgz, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ImportFile(badgz); err == nil {
		t.Fatal("bad gzip accepted")
	}
}

func FuzzImportJSON(f *testing.F) {
	f.Add(sample)
	f.Add(`{"type":"item","id":"Q1"}`)
	f.Add("[\n]\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, _, err := ImportJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v", err)
		}
	})
}

// TestImportRelationLimit: a dump naming more properties than a relation id
// holds is refused with an error naming the limit, not narrowed.
func TestImportRelationLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("[\n")
	for p := 0; p <= graph.MaxRels; p++ {
		fmt.Fprintf(&sb, "{\"type\":\"property\",\"id\":\"P%d\"},\n", p)
	}
	sb.WriteString("]\n")
	_, _, err := ImportJSON(strings.NewReader(sb.String()))
	if err == nil || !strings.Contains(err.Error(), "relation types exceed the limit of 65535") {
		t.Fatalf("err = %v, want the relation type limit", err)
	}
}
