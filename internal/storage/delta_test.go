package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func sampleDelta() *DeltaLog {
	return &DeltaLog{
		Name:      "wiki-test",
		BaseNodes: 100,
		BaseEdges: 250,
		Ops: []DeltaOp{
			{Kind: DeltaAddNode, Label: "new node", Desc: "a description"},
			{Kind: DeltaAddEdge, From: 3, To: 100, Rel: "linked to"},
			{Kind: DeltaRemoveEdge, From: 7, To: 9, Rel: "next"},
			{Kind: DeltaSetText, V: 42, Label: "renamed", Desc: ""},
			{Kind: DeltaReweight, V: 5, W: 0.75},
			{Kind: DeltaAddNode, Label: "", Desc: ""},
		},
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	want := sampleDelta()
	var buf bytes.Buffer
	if err := SaveDelta(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestDeltaFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wsdl")
	want := sampleDelta()
	if err := SaveDeltaFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestDeltaCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDelta(&buf, sampleDelta()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every single-byte flip must be rejected (CRC or structural check).
	for _, off := range []int{0, 8, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xff
		if _, err := LoadDelta(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at offset %d accepted", off)
		}
	}
	// Truncations too.
	for _, n := range []int{1, 8, len(raw) - 1} {
		if _, err := LoadDelta(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDeltaEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDelta(&buf, &DeltaLog{Name: "x", BaseNodes: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || got.BaseNodes != 1 || len(got.Ops) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeltaUnknownOpRejected(t *testing.T) {
	if err := SaveDelta(&bytes.Buffer{}, &DeltaLog{Ops: []DeltaOp{{Kind: 99}}}); err == nil {
		t.Fatal("unknown op kind saved")
	}
}

// hugeDelta hand-builds a segment that declares n ops and holds none: the
// header, the op count, then the CRC trailer.
func hugeDelta(n uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, deltaMagic)
	b = le.AppendUint32(b, deltaVersion)
	b = le.AppendUint32(b, 1)
	b = append(b, 'x')
	b = le.AppendUint64(b, 10) // base nodes
	b = le.AppendUint64(b, 20) // base edges
	b = le.AppendUint64(b, n)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// allocated reports the bytes f allocated on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadDeltaHugeCountAllocatesLittle: a segment declaring more ops than
// it holds is rejected before the op slice is allocated, whether it is read
// from memory or from a file. From a reader of unknown size the slice
// starts at allocChunk ops at most.
func TestLoadDeltaHugeCountAllocatesLittle(t *testing.T) {
	for _, n := range []uint64{1 << 20, maxCount} {
		seg := hugeDelta(n)
		path := filepath.Join(t.TempDir(), "huge.wsdl")
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, load := range map[string]func() error{
			"memory": func() error { _, err := LoadDelta(bytes.NewReader(seg)); return err },
			"file":   func() error { _, err := LoadDeltaFile(path); return err },
		} {
			var err error
			if got := allocated(func() { err = load() }); got >= 1<<20 {
				t.Errorf("%d ops from %s: allocated %d bytes", n, name, got)
			}
			if err == nil {
				t.Errorf("%d ops from %s: accepted", n, name)
			}
		}
		opaque := struct{ io.Reader }{bytes.NewReader(seg)}
		var err error
		bound := uint64(allocChunk*unsafe.Sizeof(DeltaOp{})) + 1<<20
		if got := allocated(func() { _, err = LoadDelta(opaque) }); got >= bound {
			t.Errorf("%d ops from an opaque reader: allocated %d bytes, bound %d", n, got, bound)
		}
		if err == nil {
			t.Errorf("%d ops from an opaque reader: accepted", n)
		}
	}
}

// TestDecoderRejectsOversizedDeclarations: an op count or a string length
// within the decoder's limits but past the end of the input fails the size
// check before anything is decoded.
func TestDecoderRejectsOversizedDeclarations(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDelta(&buf, sampleDelta()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	le := binary.LittleEndian
	countPos := 12 + int(le.Uint32(good[8:])) + 16 // after the name and the base shape
	for name, patch := range map[string]func([]byte){
		"op count":    func(b []byte) { le.PutUint64(b[countPos:], 0x0fffffff) },
		"name length": func(b []byte) { le.PutUint32(b[8:], maxStr) },
	} {
		bad := append([]byte(nil), good...)
		patch(bad)
		if _, err := LoadDelta(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "declared") {
			t.Errorf("oversized %s: err = %v", name, err)
		}
	}
}
