package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"wikisearch/internal/gen"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

// assertDumpsEqual compares the logical content of two dumps: metadata,
// graph, weights and every posting list (nil and empty slices compare
// equal: a dump built in memory and a loaded one represent absent data
// differently).
func assertDumpsEqual(t *testing.T, want, got *Dump) {
	t.Helper()
	if got.Name != want.Name || got.AvgDist != want.AvgDist || got.Deviation != want.Deviation {
		t.Fatalf("metadata differs: %q/%v/%v vs %q/%v/%v",
			got.Name, got.AvgDist, got.Deviation, want.Name, want.AvgDist, want.Deviation)
	}
	assertGraphsEqual(t, want.Graph, got.Graph)
	if !slices.Equal(want.Weights, got.Weights) {
		t.Fatal("weights differ")
	}
	if (want.Index == nil) != (got.Index == nil) {
		t.Fatalf("index presence differs: %v vs %v", got.Index != nil, want.Index != nil)
	}
	if want.Index == nil {
		return
	}
	if got.Index.NumTerms() != want.Index.NumTerms() {
		t.Fatalf("terms %d vs %d", got.Index.NumTerms(), want.Index.NumTerms())
	}
	names, postings := want.Index.Export()
	for i, name := range names {
		if !slices.Equal(got.Index.LookupTerm(name), postings[i]) {
			t.Fatalf("postings for %q differ", name)
		}
	}
}

func TestV3RoundTrip(t *testing.T) {
	d := sampleDump(t)
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	if buf.Len()%v3Page != 0 {
		t.Fatalf("v3 image of %d bytes is not page-aligned", buf.Len())
	}
	d2, err := LoadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Source.Format != dumpVersion || d2.Source.Mode != LoadModeRead {
		t.Fatalf("source = %+v", d2.Source)
	}
	assertDumpsEqual(t, d, d2)
	if err := VerifyDump(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestV3FileRoundTripMmap(t *testing.T) {
	d := sampleDump(t)
	path := filepath.Join(t.TempDir(), "v3.wskb")
	if err := SaveDumpFileV3(path, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		if d2.Source.Mode != LoadModeMmap {
			t.Fatalf("mode = %q, want mmap", d2.Source.Mode)
		}
		if d2.Source.MappedBytes == 0 || d2.Source.MappedBytes%v3Page != 0 {
			t.Fatalf("mapped bytes = %d", d2.Source.MappedBytes)
		}
	}
	assertDumpsEqual(t, d, d2)
	if err := VerifyDumpFile(path); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and releases the mapping.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestV3WithoutIndex(t *testing.T) {
	d := sampleDump(t)
	d.Index = nil
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Index != nil {
		t.Fatal("index materialized from nothing")
	}
	assertDumpsEqual(t, d, d2)
}

func TestV3EmptyGraph(t *testing.T) {
	g, err := graph.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	d := &Dump{Name: "empty", Graph: g}
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Graph.NumNodes() != 0 || d2.Graph.NumEdges() != 0 || len(d2.Weights) != 0 {
		t.Fatalf("empty graph round trip: %d nodes, %d edges", d2.Graph.NumNodes(), d2.Graph.NumEdges())
	}
}

func TestV3GeneratedKBRoundTrip(t *testing.T) {
	kb := gen.Generate(gen.Config{Name: "v3-rt", Seed: 7, Nodes: 2000})
	w := weight.Compute(kb.Graph, parallel.NewPool(2))
	d := &Dump{
		Name: kb.Name, Graph: kb.Graph, Weights: w,
		AvgDist: 4.2, Deviation: 1.1, Index: text.BuildIndex(kb.Graph),
	}
	path := filepath.Join(t.TempDir(), "gen.wskb")
	if err := SaveDumpFileV3(path, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	assertDumpsEqual(t, d, d2)
}

func TestV3CorruptionRejected(t *testing.T) {
	d := sampleDump(t)
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, cut := range []int{0, 8, 80, v3Page - 1, v3Page, len(good) / 2, len(good) - 1} {
		if _, err := LoadDump(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Header bit flips are always caught at load (header CRC + structural
	// checks). The flip range covers the CRC'd header bytes — the rest of
	// page 0 is padding; section-body flips are the per-section CRCs' job.
	nameLen := int(uint32(good[80]) | uint32(good[81])<<8 | uint32(good[82])<<16 | uint32(good[83])<<24)
	hdrLen := 84 + nameLen + numSections*sectionEntrySize + 4
	f := func(pos uint16, flip byte) bool {
		if flip == 0 {
			return true
		}
		bad := append([]byte(nil), good...)
		bad[int(pos)%hdrLen] ^= flip
		_, err := LoadDump(bytes.NewReader(bad))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}

	// VerifyDump catches any body flip, even ones load-time structural
	// validation cannot see (e.g. a weight bit).
	body := func(pos uint16, flip byte) bool {
		if flip == 0 {
			return true
		}
		bad := append([]byte(nil), good...)
		p := v3Page + int(pos)%(len(bad)-v3Page)
		bad[p] ^= flip
		return VerifyDump(bad) != nil
	}
	if err := quick.Check(body, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestV3HugeHeaderCountsRejected: a crafted header declaring huge counts
// must fail fast on the section-table bounds, never allocate.
func TestV3HugeHeaderCountsRejected(t *testing.T) {
	d := sampleDump(t)
	var buf bytes.Buffer
	if err := SaveDumpV3(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{16, 24, 32, 40} { // n, m, nr, terms
		bad := append([]byte(nil), buf.Bytes()...)
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xff
		}
		if _, err := LoadDump(bytes.NewReader(bad)); err == nil {
			t.Fatalf("huge count at header offset %d accepted", off)
		}
	}
}

// TestSaveDumpFileCleansUpOnError: the temp file never survives an encode
// error.
func TestSaveDumpFileCleansUpOnError(t *testing.T) {
	g, _ := sampleGraph(t)
	bad := &Dump{Name: "bad", Graph: g, Weights: []float64{1}} // wrong weight count
	dir := t.TempDir()
	if err := SaveDumpFileV3(filepath.Join(dir, "kb.wskb"), bad); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leftover files after failed save: %v", entries)
	}
}
