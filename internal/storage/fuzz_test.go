package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/text"
)

// FuzzLoadDump throws arbitrary bytes at the dump loader, in memory via
// LoadDump and through the file-backed mmap path via LoadDumpFile, and at
// the verifiers: none may panic, over-allocate against a tiny input, or
// accept a corrupted image whose header lies. Seeds cover a valid dump in
// the current layout (uint32 offsets, uint16 relation ids), hand-built
// v1/v2 images, and characteristic mutations of each.
func FuzzLoadDump(f *testing.F) {
	var v3 bytes.Buffer
	if err := SaveDumpV3(&v3, sampleDumpForFuzz(f)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{legacyImage(1), legacyImage(2), v3.Bytes()} {
		addMutations(f, seed)
	}
	f.Add([]byte{})
	f.Add([]byte("WSKB"))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := LoadDump(bytes.NewReader(data)); err == nil {
			d.Close()
		}
		// The file-backed path takes the mmap branch.
		path := filepath.Join(dir, "fuzz.wskb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := LoadDumpFile(path); err == nil {
			assertDumpUsable(t, d)
			d.Close()
		}
		_ = VerifyDump(data)
		_ = VerifyDumpFile(path)
	})
}

// FuzzLoadDelta throws arbitrary bytes at the delta-segment decoder, in
// memory and through the file path: none may panic or allocate for ops the
// input cannot hold, and a segment that loads must re-encode to a stable
// image.
func FuzzLoadDelta(f *testing.F) {
	var seg bytes.Buffer
	if err := SaveDelta(&seg, sampleDelta()); err != nil {
		f.Fatal(err)
	}
	addMutations(f, seg.Bytes())
	f.Add(hugeDelta(1 << 20))
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.wsdl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = LoadDeltaFile(path)
		l, err := LoadDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Compare images rather than logs: a reweight may carry NaN.
		var once, twice bytes.Buffer
		if err := SaveDelta(&once, l); err != nil {
			t.Fatalf("loaded segment does not save: %v", err)
		}
		l2, err := LoadDelta(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-saved segment does not load: %v", err)
		}
		if err := SaveDelta(&twice, l2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("segment image not stable across a round trip")
		}
	})
}

// addMutations seeds f with seed, its first half, a bit flip and a
// header-region overwrite that declares absurd counts.
func addMutations(f *testing.F, seed []byte) {
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncation
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip
	f.Add(flipped)
	huge := append([]byte(nil), seed...)
	for i := 16; i < 24 && i < len(huge); i++ {
		huge[i] = 0xff // absurd count in the header region
	}
	f.Add(huge)
}

// sampleDumpForFuzz mirrors sampleDump without *testing.T (fuzz setup gets
// a *testing.F).
func sampleDumpForFuzz(f *testing.F) *Dump {
	f.Helper()
	b := graph.NewBuilder()
	b.AddNode("SQL", "query language")
	b.AddNode("SPARQL", "RDF query language")
	b.AddNode("Query language", "")
	b.AddEdgeNamed(0, 2, "instance of")
	b.AddEdgeNamed(1, 2, "instance of")
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	return &Dump{
		Name:      "fuzz-kb",
		Graph:     g,
		Weights:   []float64{0.25, 0.5, 1},
		AvgDist:   3.68,
		Deviation: 0.98,
		Index:     text.BuildIndex(g),
	}
}

// assertDumpUsable touches every array a loaded dump exposes, so an
// accepted-but-inconsistent dump faults under the fuzzer instead of in a
// search kernel later.
func assertDumpUsable(t *testing.T, d *Dump) {
	t.Helper()
	g := d.Graph
	n := g.NumNodes()
	if len(d.Weights) != n && d.Weights != nil {
		t.Fatalf("%d weights for %d nodes", len(d.Weights), n)
	}
	for v := 0; v < n; v++ {
		_ = g.Label(int32(v))
		_ = g.Description(int32(v))
		dsts, _ := g.OutEdges(int32(v))
		for _, to := range dsts {
			if to < 0 || int(to) >= n {
				t.Fatalf("edge to %d of %d", to, n)
			}
		}
		srcs, _ := g.InEdges(int32(v))
		for _, from := range srcs {
			if from < 0 || int(from) >= n {
				t.Fatalf("edge from %d of %d", from, n)
			}
		}
	}
	if d.Index != nil {
		names, postings := d.Index.Export()
		for i := range names {
			for _, p := range postings[i] {
				if p < 0 || int(p) >= n {
					t.Fatalf("posting %d of %d nodes", p, n)
				}
			}
		}
	}
}
