package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wikisearch/internal/text"
)

func sampleDump(t *testing.T) *Dump {
	t.Helper()
	g, w := sampleGraph(t)
	return &Dump{
		Name:      "sample",
		Graph:     g,
		Weights:   w,
		AvgDist:   3.68,
		Deviation: 0.98,
		Index:     text.BuildIndex(g),
	}
}

// legacyImage hand-builds a complete empty-graph dump in the retired v1 or
// v2 record-stream format: header, name, counts, the two one-entry offset
// arrays, v2's statistics and empty index, and the CRC trailer.
func legacyImage(version uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magic)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, uint32(len("legacy")))
	b = append(b, "legacy"...)
	for range 5 { // n, m, nr, outOff[0], inOff[0]
		b = le.AppendUint64(b, 0)
	}
	if version == 2 {
		for range 3 { // avgDist, deviation, term count
			b = le.AppendUint64(b, 0)
		}
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestLoadDumpRejectsLegacyVersions: v1 and v2 dumps get a defined error
// naming their version from every loader, never a panic.
func TestLoadDumpRejectsLegacyVersions(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		img := legacyImage(v)
		want := fmt.Sprintf("storage: not a v3 dump (version %d)", v)
		check := func(via string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("v%d via %s: err = %v, want %q", v, via, err, want)
			}
		}
		_, err := LoadDump(bytes.NewReader(img))
		check("LoadDump", err)
		path := writeFile(t, img)
		_, err = LoadDumpFile(path)
		check("LoadDumpFile", err)
		check("VerifyDumpFile", VerifyDumpFile(path))
	}
}

// TestDumpRoundTrip: a memory-mapped dump, whose arrays are views into the
// file, saves back to a byte-identical file — what Engine.Save does for a
// loaded engine.
func TestDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.wskb")
	if err := SaveDumpFileV3(path, sampleDump(t)); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	back := filepath.Join(dir, "back.wskb")
	if err := SaveDumpFileV3(back, d); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-saved mapped dump differs from its source file")
	}
}

// TestDumpWithoutIndex: a dump saved without an index loads through the
// file path with none, keeping its statistics.
func TestDumpWithoutIndex(t *testing.T) {
	d := sampleDump(t)
	d.Index = nil
	path := filepath.Join(t.TempDir(), "noindex.wskb")
	if err := SaveDumpFileV3(path, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Index != nil {
		t.Fatal("index materialized from nothing")
	}
	assertDumpsEqual(t, d, d2)
}

func TestDumpValidation(t *testing.T) {
	if err := SaveDumpV3(&bytes.Buffer{}, &Dump{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := sampleGraph(t)
	if err := SaveDumpV3(&bytes.Buffer{}, &Dump{Graph: g, Weights: []float64{1}}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

// TestDumpCorruptionRejected: bytes outside every CRC-covered range — the
// rest of the header page and the padding between sections — are checked
// by VerifyDump, while a load, which checks structure only, accepts them.
func TestDumpCorruptionRejected(t *testing.T) {
	good := saveImage(t, sampleDump(t))
	h, err := parseV3Header(good)
	if err != nil {
		t.Fatal(err)
	}
	e := h.sections[secOutOff]
	for _, pos := range []int{v3Page - 1, int(e.off + e.size)} {
		bad := append([]byte(nil), good...)
		bad[pos] = 1
		if err := VerifyDump(bad); err == nil || !strings.Contains(err.Error(), "padding") {
			t.Errorf("padding byte %d: VerifyDump = %v", pos, err)
		}
		if _, err := LoadDump(bytes.NewReader(bad)); err != nil {
			t.Errorf("padding byte %d: load rejected a structurally sound dump: %v", pos, err)
		}
	}
}

// TestDumpFileRoundTrip: LoadDump reads from a reader that does not know
// its length, and reports the image size.
func TestDumpFileRoundTrip(t *testing.T) {
	d := sampleDump(t)
	img := saveImage(t, d)
	f, err := os.Open(writeFile(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d2, err := LoadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Source.Format != version3 || d2.Source.Mode != LoadModeRead || d2.Source.Bytes != int64(len(img)) {
		t.Fatalf("source = %+v", d2.Source)
	}
	assertDumpsEqual(t, d, d2)
}
