package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"wikisearch/internal/graph"
	"wikisearch/internal/text"
)

// Dump is an on-disk engine snapshot: graph, weights, the sampled
// average-distance statistics, and the inverted keyword index —
// everything the engine needs to start serving without recomputation.
// It is stored in the mmap-able version-4 section format (v3.go), whose
// loaded arrays alias the file mapping.
type Dump struct {
	Name      string
	Graph     *graph.Graph
	Weights   []float64
	AvgDist   float64
	Deviation float64
	// Index may be nil for a dump saved without one.
	Index *text.Index

	// Source describes how this dump was loaded (zero for dumps built in
	// memory for saving).
	Source LoadSource

	// src owns the mapping (or heap image) the arrays alias; nil for
	// dumps built in memory.
	src *mapping
}

// LoadSource describes the provenance of a loaded dump.
type LoadSource struct {
	// Format is the on-disk version that was read (always 4).
	Format int
	// Mode is how the bytes got into memory: LoadModeMmap (zero-copy
	// mapping) or LoadModeRead (image read into a heap buffer).
	Mode string
	// MappedBytes is the size of the live memory mapping (0 unless Mode
	// is LoadModeMmap).
	MappedBytes int64
	// Bytes is the dump file size.
	Bytes int64
}

// Load modes reported in LoadSource.Mode and surfaced by wikiserve.
const (
	LoadModeMmap = "mmap"
	LoadModeRead = "read"
)

// Close releases the memory mapping backing a loaded dump. After Close
// every slice and string view handed out by the loader is invalid; the
// caller (Engine.Close) must guarantee no search is in flight. Close on an
// in-memory dump is a no-op. It is idempotent.
func (d *Dump) Close() error {
	if d == nil {
		return nil
	}
	return d.src.Close()
}

// checkHeader validates the magic and version every dump starts with, so a
// file of an older dump generation (the v1/v2 record streams, the v3 layout
// with wider offsets) gets a defined error before anything is read or
// mapped.
func checkHeader(head []byte) error {
	if len(head) < 8 {
		return fmt.Errorf("storage: dump header truncated (%d bytes)", len(head))
	}
	if m := binary.LittleEndian.Uint32(head); m != magic {
		return fmt.Errorf("storage: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != dumpVersion {
		return fmt.Errorf("storage: not a v%d dump (version %d)", dumpVersion, v)
	}
	return nil
}

// LoadDump reads a dump from r fully into memory and parses it in place;
// use LoadDumpFile for the zero-copy mmap path.
func LoadDump(r io.Reader) (*Dump, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(8)
	if err := checkHeader(head); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(br, int64(maxV3Bytes)+1))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if int64(len(data)) > int64(maxV3Bytes) {
		return nil, fmt.Errorf("storage: dump exceeds size limit")
	}
	d, err := parseV3(alignedImage(data), nil)
	if err != nil {
		return nil, err
	}
	d.Source.Mode = LoadModeRead
	return d, nil
}

// alignedImage returns data, copied to a fresh buffer in the (practically
// impossible) case its base is not 8-byte aligned, so the word views
// are always safe.
func alignedImage(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out
}

// openDump opens a dump file and checks its header and size, returning the
// open file and its size.
func openDump(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err == nil {
		var head [8]byte
		n, _ := io.ReadFull(f, head[:])
		err = checkHeader(head[:n])
	}
	if err == nil && st.Size() > int64(maxV3Bytes) {
		err = fmt.Errorf("storage: dump of %d bytes exceeds limit", st.Size())
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// LoadDumpFile reads a dump from path and parses it in place. It is
// memory-mapped where the platform supports it (check Dump.Source.Mode), so
// loading is near-instant and the caller must keep the returned Dump's
// mapping alive — see Dump.Close.
func LoadDumpFile(path string) (*Dump, error) {
	f, size, err := openDump(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m *mapping
	mode := LoadModeMmap
	if data, unmap, err := mmapFile(f, size); err == nil {
		m = &mapping{data: data, unmap: unmap}
	} else {
		mode = LoadModeRead
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		m = &mapping{data: buf}
	}
	d, err := parseV3(m.data, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	d.Source.Mode = mode
	if mode == LoadModeMmap {
		d.Source.MappedBytes = size
	}
	return d, nil
}
