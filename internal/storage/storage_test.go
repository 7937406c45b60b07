package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wikisearch/internal/gen"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

func sampleGraph(t *testing.T) (*graph.Graph, []float64) {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("SQL", "query language")
	b.AddNode("SPARQL", "RDF query language")
	b.AddNode("Query language", "")
	b.AddEdgeNamed(0, 2, "instance of")
	b.AddEdgeNamed(1, 2, "instance of")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []float64{0.25, 0.5, 1}
}

func assertGraphsEqual(t *testing.T, g, g2 *graph.Graph) {
	t.Helper()
	if g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() || g.NumRels() != g2.NumRels() {
		t.Fatalf("shape differs: %d/%d/%d vs %d/%d/%d",
			g.NumNodes(), g.NumEdges(), g.NumRels(), g2.NumNodes(), g2.NumEdges(), g2.NumRels())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.Label(id) != g2.Label(id) || g.Description(id) != g2.Description(id) {
			t.Fatalf("node %d text differs", v)
		}
		d1, r1 := g.OutEdges(id)
		d2, r2 := g2.OutEdges(id)
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("node %d out edges differ", v)
		}
		s1, q1 := g.InEdges(id)
		s2, q2 := g2.InEdges(id)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(q1, q2) {
			t.Fatalf("node %d in edges differ", v)
		}
	}
	for r := 0; r < g.NumRels(); r++ {
		if g.RelName(graph.RelID(r)) != g2.RelName(graph.RelID(r)) {
			t.Fatalf("relation %d name differs", r)
		}
	}
}

// saveImage returns the v3 image of d.
func saveImage(t *testing.T, d *Dump) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeFile writes data to a fresh file and returns its path.
func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.wskb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRoundTrip: the image is a pure function of the dump's content, so a
// loaded dump saves back byte for byte.
func TestRoundTrip(t *testing.T) {
	good := saveImage(t, sampleDump(t))
	d, err := LoadDump(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if again := saveImage(t, d); !bytes.Equal(again, good) {
		t.Fatalf("re-saved image differs (%d vs %d bytes)", len(again), len(good))
	}
}

func TestRoundTripGeneratedKB(t *testing.T) {
	kb := gen.Generate(gen.Config{Name: "rt", Seed: 3, Nodes: 2000})
	w := weight.Compute(kb.Graph, parallel.NewPool(2))
	d := &Dump{Name: kb.Name, Graph: kb.Graph, Weights: w, AvgDist: 4, Index: text.BuildIndex(kb.Graph)}
	d2, err := LoadDump(bytes.NewReader(saveImage(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	assertDumpsEqual(t, d, d2)
}

func TestSaveRejectsMismatchedWeights(t *testing.T) {
	g, w := sampleGraph(t)
	if err := SaveDumpV3(&bytes.Buffer{}, &Dump{Name: "x", Graph: g, Weights: []float64{1}}); err == nil {
		t.Fatal("SaveDumpV3 accepted wrong weight count")
	}
	long := &Dump{Name: strings.Repeat("n", v3MaxName+1), Graph: g, Weights: w}
	if err := SaveDumpV3(&bytes.Buffer{}, long); err == nil {
		t.Fatal("SaveDumpV3 accepted a name past the header limit")
	}
}

// TestLoadRejectsCorruption: truncated dump files fail both the load and
// the full verification, never panic.
func TestLoadRejectsCorruption(t *testing.T) {
	good := saveImage(t, sampleDump(t))
	for _, cut := range []int{0, 1, 4, 8, 16, v3Page, len(good) / 2, len(good) - 1} {
		path := writeFile(t, good[:cut])
		if d, err := LoadDumpFile(path); err == nil {
			d.Close()
			t.Fatalf("LoadDumpFile accepted truncation at %d", cut)
		}
		if err := VerifyDumpFile(path); err == nil {
			t.Fatalf("VerifyDumpFile accepted truncation at %d", cut)
		}
	}
}

// TestLoadRejectsCorruptionQuick: a byte flip anywhere in a dump file —
// header, section body or padding — fails VerifyDumpFile.
func TestLoadRejectsCorruptionQuick(t *testing.T) {
	good := saveImage(t, sampleDump(t))
	path := filepath.Join(t.TempDir(), "kb.wskb")
	f := func(pos uint16, flip byte) bool {
		if flip == 0 {
			return true
		}
		bad := append([]byte(nil), good...)
		bad[int(pos)%len(bad)] ^= flip
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return VerifyDumpFile(path) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.wskb")
	if err := SaveDumpFileV3(path, sampleDump(t)); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("want only the dump in %s, found %v (%v)", dir, entries, err)
	}
	missing := filepath.Join(dir, "missing.wskb")
	if _, err := LoadDumpFile(missing); err == nil {
		t.Fatal("LoadDumpFile accepted missing file")
	}
	if err := VerifyDumpFile(missing); err == nil {
		t.Fatal("VerifyDumpFile accepted missing file")
	}
}

// TestEmptyGraphRoundTrip: a dump of zero nodes loads through the file
// path, where every section is empty.
func TestEmptyGraphRoundTrip(t *testing.T) {
	g, err := graph.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.wskb")
	if err := SaveDumpFileV3(path, &Dump{Name: "empty", Graph: g}); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name != "empty" || d.Graph.NumNodes() != 0 || len(d.Weights) != 0 {
		t.Fatal("empty graph round trip mismatch")
	}
	if err := VerifyDumpFile(path); err != nil {
		t.Fatal(err)
	}
}
