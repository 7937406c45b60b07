package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"wikisearch/internal/graph"
	"wikisearch/internal/text"
)

// Version 3 is the mmap-able dump format: the on-disk layout IS the
// in-memory layout. A fixed little-endian header page carries the graph
// shape, the dataset metadata and a section table; every section is a
// page-aligned run of fixed-width words (int64/int32/float64) or a raw
// byte blob addressed by an offset array, each guarded by its own CRC32.
// The loader hands graph.FromParts and text.FromParts zero-copy slice
// views straight into the mapping (unsafe.Slice / unsafe.String), so
// startup cost is O(validation) instead of O(decode), and cold sections
// of a graph larger than RAM page in on demand.
//
// Layout (all integers little-endian):
//
//	page 0   header: magic, version=3, page size, section count,
//	         n/m/nr/terms, avgDist, deviation, flags, file size,
//	         name string, section table, header CRC32
//	page 1+  sections, each starting on a page boundary:
//	         outOff inOff outDst outRel inSrc inRel weights
//	         labelOff labelBlob descOff descBlob relOff relBlob
//	         termOff termBlob postOff postIDs
//
// Offset arrays (labelOff &c.) have count+1 entries delimiting their blob,
// exactly like CSR offsets delimit adjacency — so a string i is
// blob[off[i]:off[i+1]] with no per-record framing to decode. See
// DESIGN.md §9 for the alignment and endianness rules and the mapping
// lifecycle.
const (
	version3 = 3
	// v3Page is the section alignment. It matches the common OS page size;
	// any multiple of 8 would satisfy the word-alignment requirement of
	// unsafe.Slice, but page alignment keeps section boundaries friendly to
	// madvise/readahead and to future per-section mapping.
	v3Page = 4096
	// v3MaxName bounds the dataset name so the header always fits page 0.
	v3MaxName = 2048
)

// Section kinds, in file order.
const (
	secOutOff uint32 = iota + 1
	secInOff
	secOutDst
	secOutRel
	secInSrc
	secInRel
	secWeights
	secLabelOff
	secLabelBlob
	secDescOff
	secDescBlob
	secRelOff
	secRelBlob
	secTermOff
	secTermBlob
	secPostOff
	secPostIDs

	numSections = int(secPostIDs)
)

// header flags.
const flagHasIndex = 1 << 0

// sectionEntry is one row of the on-disk section table.
type sectionEntry struct {
	kind  uint32
	crc   uint32 // CRC32 (IEEE) of the section's bytes
	off   uint64 // from file start; page-aligned
	size  uint64 // exact byte length (excluding padding)
	count uint64 // element count (== size for blobs)
}

const sectionEntrySize = 32

// hostLittleEndian reports whether this machine stores integers
// little-endian. The v3 zero-copy loader requires it; every supported
// target is (DESIGN.md §9).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// leBytes returns the little-endian byte image of a fixed-width word
// slice. On little-endian hosts this is a zero-copy unsafe view of the
// slice's backing array; on big-endian hosts it converts element-wise.
func leBytes[T int64 | int32 | uint64 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(s[0]))
	if hostLittleEndian() {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*size)
	}
	out := make([]byte, len(s)*size)
	for i, v := range s {
		switch size {
		case 4:
			binary.LittleEndian.PutUint32(out[i*4:], uint32(any(v).(int32)))
		default:
			var bits uint64
			switch v := any(v).(type) {
			case int64:
				bits = uint64(v)
			case uint64:
				bits = v
			case float64:
				bits = math.Float64bits(v)
			}
			binary.LittleEndian.PutUint64(out[i*8:], bits)
		}
	}
	return out
}

// view reinterprets count elements of T at the start of b. The caller has
// verified length, 8-byte alignment of the base and little-endianness of
// the host, so this is the zero-copy read path.
func view[T int64 | int32 | float64](b []byte, count int) []T {
	if count == 0 {
		return []T{}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
}

// mapping owns one loaded v3 dump image — either an OS memory mapping or
// a heap buffer on platforms without mmap. Everything the loader returned
// (graph arrays, labels, index postings) aliases this memory, so it must
// not be unmapped while any of them is still reachable; Dump.Close (and
// Engine.Close above it) is the single release point. A mapping must not
// be copied: a copy could hand out views after the original is closed.
type mapping struct {
	_      noCopy
	data   []byte
	unmap  func([]byte) error // nil for heap buffers
	closed bool
}

// Close releases the mapping. It is idempotent; the first call wins.
func (m *mapping) Close() error {
	if m == nil || m.closed {
		return nil
	}
	m.closed = true
	if m.unmap != nil {
		return m.unmap(m.data)
	}
	m.data = nil
	return nil
}

// blobAndOffsets flattens strings into one blob plus a count+1 offset
// array delimiting each string, the on-disk string representation.
func blobAndOffsets(ss []string) ([]byte, []int64) {
	var total int
	for _, s := range ss {
		total += len(s)
	}
	blob := make([]byte, 0, total)
	offs := make([]int64, len(ss)+1)
	for i, s := range ss {
		blob = append(blob, s...)
		offs[i+1] = int64(len(blob))
	}
	return blob, offs
}

// SaveDumpV3 writes a version-3 dump to w. The writer receives the exact
// mmap-able image: header page, then page-aligned sections.
func SaveDumpV3(w io.Writer, d *Dump) error {
	if d.Graph == nil {
		return fmt.Errorf("storage: nil graph")
	}
	if len(d.Weights) != d.Graph.NumNodes() {
		return fmt.Errorf("storage: %d weights for %d nodes", len(d.Weights), d.Graph.NumNodes())
	}
	if len(d.Name) > v3MaxName {
		return fmt.Errorf("storage: dataset name of %d bytes exceeds limit %d", len(d.Name), v3MaxName)
	}
	outOff, outDst, outRel, inOff, inSrc, inRel, labels, descs, relNames := d.Graph.Parts()

	labelBlob, labelOff := blobAndOffsets(labels)
	descBlob, descOff := blobAndOffsets(descs)
	relBlob, relOff := blobAndOffsets(relNames)

	var (
		termBlob []byte
		termOff  []int64
		postOff  []int64
		postIDs  []graph.NodeID
		nTerms   int
		flags    uint64
	)
	if d.Index != nil {
		flags |= flagHasIndex
		names, postings := d.Index.Export()
		nTerms = len(names)
		termBlob, termOff = blobAndOffsets(names)
		postOff = make([]int64, nTerms+1)
		var total int
		for i, p := range postings {
			total += len(p)
			postOff[i+1] = int64(total)
		}
		postIDs = make([]graph.NodeID, 0, total)
		for _, p := range postings {
			postIDs = append(postIDs, p...)
		}
	}

	sections := []struct {
		kind  uint32
		data  []byte
		count uint64
	}{
		{secOutOff, leBytes(outOff), uint64(len(outOff))},
		{secInOff, leBytes(inOff), uint64(len(inOff))},
		{secOutDst, leBytes(outDst), uint64(len(outDst))},
		{secOutRel, leBytes(outRel), uint64(len(outRel))},
		{secInSrc, leBytes(inSrc), uint64(len(inSrc))},
		{secInRel, leBytes(inRel), uint64(len(inRel))},
		{secWeights, leBytes(d.Weights), uint64(len(d.Weights))},
		{secLabelOff, leBytes(labelOff), uint64(len(labelOff))},
		{secLabelBlob, labelBlob, uint64(len(labelBlob))},
		{secDescOff, leBytes(descOff), uint64(len(descOff))},
		{secDescBlob, descBlob, uint64(len(descBlob))},
		{secRelOff, leBytes(relOff), uint64(len(relOff))},
		{secRelBlob, relBlob, uint64(len(relBlob))},
		{secTermOff, leBytes(termOff), uint64(len(termOff))},
		{secTermBlob, termBlob, uint64(len(termBlob))},
		{secPostOff, leBytes(postOff), uint64(len(postOff))},
		{secPostIDs, leBytes(postIDs), uint64(len(postIDs))},
	}

	// Lay out: sections start at page 1, each page-aligned; the file ends
	// page-aligned too, so the layout is a pure function of the section
	// sizes and empty trailing sections stay in bounds.
	entries := make([]sectionEntry, len(sections))
	off := uint64(v3Page)
	for i, s := range sections {
		entries[i] = sectionEntry{
			kind:  s.kind,
			crc:   crc32.ChecksumIEEE(s.data),
			off:   off,
			size:  uint64(len(s.data)),
			count: s.count,
		}
		off = pageCeil(off + uint64(len(s.data)))
	}
	fileSize := off

	// Assemble the header page.
	hdr := make([]byte, 0, v3Page)
	hdr = binary.LittleEndian.AppendUint32(hdr, magic)
	hdr = binary.LittleEndian.AppendUint32(hdr, version3)
	hdr = binary.LittleEndian.AppendUint32(hdr, v3Page)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(sections)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.Graph.NumNodes()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.Graph.NumEdges()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(relNames)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(nTerms))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(d.AvgDist))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(d.Deviation))
	hdr = binary.LittleEndian.AppendUint64(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, fileSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.Name)))
	hdr = append(hdr, d.Name...)
	for _, e := range entries {
		hdr = binary.LittleEndian.AppendUint32(hdr, e.kind)
		hdr = binary.LittleEndian.AppendUint32(hdr, e.crc)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.off)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.size)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.count)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if len(hdr) > v3Page {
		return fmt.Errorf("storage: v3 header of %d bytes exceeds one page", len(hdr))
	}

	bw := &padWriter{w: w}
	bw.write(hdr)
	bw.padTo(v3Page)
	for i, s := range sections {
		bw.write(s.data)
		if i+1 < len(entries) {
			bw.padTo(entries[i+1].off)
		} else {
			bw.padTo(fileSize)
		}
	}
	return bw.err
}

// pageCeil rounds up to the next page boundary.
func pageCeil(n uint64) uint64 { return (n + v3Page - 1) &^ uint64(v3Page-1) }

// padWriter tracks the write position and zero-fills up to section
// boundaries.
type padWriter struct {
	w   io.Writer
	pos uint64
	err error
}

func (p *padWriter) write(b []byte) {
	if p.err != nil || len(b) == 0 {
		return
	}
	var n int
	n, p.err = p.w.Write(b)
	p.pos += uint64(n)
}

var zeroPage [v3Page]byte

// padTo writes zeros until the position reaches target.
func (p *padWriter) padTo(target uint64) {
	for p.pos < target && p.err == nil {
		p.write(zeroPage[:min(target-p.pos, v3Page)])
	}
}

// SaveDumpFileV3 writes a version-3 dump to path atomically and durably
// (temp file, fsync, rename, parent-directory fsync).
func SaveDumpFileV3(path string, d *Dump) error {
	return atomicWriteFile(disk, path, func(w io.Writer) error { return SaveDumpV3(w, d) })
}

// v3Header is the parsed header page.
type v3Header struct {
	n, m, nr, terms    int
	avgDist, deviation float64
	flags              uint64
	fileSize           uint64
	name               string
	sections           map[uint32]sectionEntry
}

// parseV3Header validates page 0 against the data length: magic, version,
// header CRC, bounded counts, and a section table whose every entry lies
// inside the file, 8-byte aligned, with a size that matches its element
// count. A crafted header can therefore never drive an out-of-bounds
// slice view or an allocation beyond the real file size.
func parseV3Header(data []byte) (*v3Header, error) {
	if len(data) < 96 {
		return nil, fmt.Errorf("storage: v3 header truncated (%d bytes)", len(data))
	}
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	if u32(8) != v3Page {
		return nil, fmt.Errorf("storage: unsupported page size %d", u32(8))
	}
	nSec := int(u32(12))
	if nSec != numSections {
		return nil, fmt.Errorf("storage: %d sections, want %d", nSec, numSections)
	}
	h := &v3Header{
		n:         int(u64(16)),
		m:         int(u64(24)),
		nr:        int(u64(32)),
		terms:     int(u64(40)),
		avgDist:   math.Float64frombits(u64(48)),
		deviation: math.Float64frombits(u64(56)),
		flags:     u64(64),
		fileSize:  u64(72),
	}
	for _, c := range []int{h.n, h.m, h.nr, h.terms} {
		if c < 0 || c > maxCount {
			return nil, fmt.Errorf("storage: implausible count %d", c)
		}
	}
	if h.fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("storage: header says %d bytes, file has %d", h.fileSize, len(data))
	}
	nameLen := int(u32(80))
	if nameLen > v3MaxName || 84+nameLen+nSec*sectionEntrySize+4 > min(v3Page, len(data)) {
		return nil, fmt.Errorf("storage: v3 header overruns its page")
	}
	h.name = string(data[84 : 84+nameLen])
	tab := 84 + nameLen
	crcPos := tab + nSec*sectionEntrySize
	if got, want := crc32.ChecksumIEEE(data[:crcPos]), u32(crcPos); got != want {
		return nil, fmt.Errorf("storage: v3 header CRC mismatch (file %#x, computed %#x)", want, got)
	}
	h.sections = make(map[uint32]sectionEntry, nSec)
	for i := 0; i < nSec; i++ {
		e := sectionEntry{
			kind:  u32(tab + i*sectionEntrySize),
			crc:   u32(tab + i*sectionEntrySize + 4),
			off:   u64(tab + i*sectionEntrySize + 8),
			size:  u64(tab + i*sectionEntrySize + 16),
			count: u64(tab + i*sectionEntrySize + 24),
		}
		if e.kind == 0 || e.kind > uint32(numSections) {
			return nil, fmt.Errorf("storage: unknown section kind %d", e.kind)
		}
		if _, dup := h.sections[e.kind]; dup {
			return nil, fmt.Errorf("storage: duplicate section kind %d", e.kind)
		}
		if e.off%8 != 0 || e.off < v3Page || e.off+e.size < e.off || e.off+e.size > uint64(len(data)) {
			return nil, fmt.Errorf("storage: section %d [%d,+%d) outside file of %d bytes",
				e.kind, e.off, e.size, len(data))
		}
		h.sections[e.kind] = e
	}
	return h, nil
}

// section returns the bytes of one section after checking that its element
// count and byte size agree (elemSize 1 for blobs) and that the count is
// what the header's shape demands (wantCount < 0 skips that check).
func (h *v3Header) section(data []byte, kind uint32, elemSize int, wantCount int) ([]byte, sectionEntry, error) {
	e, ok := h.sections[kind]
	if !ok {
		return nil, e, fmt.Errorf("storage: missing section %d", kind)
	}
	if e.size != e.count*uint64(elemSize) {
		return nil, e, fmt.Errorf("storage: section %d: %d bytes for %d elements of %d",
			kind, e.size, e.count, elemSize)
	}
	if wantCount >= 0 && e.count != uint64(wantCount) {
		return nil, e, fmt.Errorf("storage: section %d has %d elements, want %d", kind, e.count, wantCount)
	}
	return data[e.off : e.off+e.size], e, nil
}

// stringViews builds the []string for one (offset array, blob) section
// pair, validating that offsets start at 0, never decrease, and end
// exactly at the blob length. The strings are zero-copy views into the
// mapping (unsafe.String), valid until the mapping closes.
func stringViews(offs []int64, blob []byte) ([]string, error) {
	n := len(offs) - 1
	if offs[0] != 0 || offs[n] != int64(len(blob)) {
		return nil, fmt.Errorf("storage: string offsets [%d,%d] do not span blob of %d", offs[0], offs[n], len(blob))
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		lo, hi := offs[i], offs[i+1]
		if lo > hi {
			return nil, fmt.Errorf("storage: non-monotone string offsets at %d", i)
		}
		if lo < hi {
			out[i] = unsafe.String(&blob[lo], int(hi-lo))
		}
	}
	return out, nil
}

// parseV3 builds a Dump whose arrays alias data. src, when non-nil, is
// the mapping that owns data and becomes the dump's closer; parseV3 does
// NOT close it on error — the caller does.
//
// Structural invariants (CSR monotonicity, edge endpoint and posting
// ranges, string-offset spans) are fully validated, so a loaded dump can
// never drive the kernel out of bounds. Per-section CRCs are NOT checked
// here — that is VerifyDump's job — because checking them would fault in
// every page and forfeit the instant-startup property.
func parseV3(data []byte, src *mapping) (*Dump, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("storage: v3 dumps require a little-endian host")
	}
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Heap buffers of this size are always 8-aligned in practice; a
		// misaligned base would make the word views fault on some
		// architectures, so refuse rather than risk it.
		return nil, fmt.Errorf("storage: v3 image base is not 8-byte aligned")
	}
	h, err := parseV3Header(data)
	if err != nil {
		return nil, err
	}

	want := func(kind uint32, elemSize, count int) ([]byte, error) {
		b, _, err := h.section(data, kind, elemSize, count)
		return b, err
	}
	outOffB, err := want(secOutOff, 8, h.n+1)
	if err != nil {
		return nil, err
	}
	inOffB, err := want(secInOff, 8, h.n+1)
	if err != nil {
		return nil, err
	}
	outDstB, err := want(secOutDst, 4, h.m)
	if err != nil {
		return nil, err
	}
	outRelB, err := want(secOutRel, 4, h.m)
	if err != nil {
		return nil, err
	}
	inSrcB, err := want(secInSrc, 4, h.m)
	if err != nil {
		return nil, err
	}
	inRelB, err := want(secInRel, 4, h.m)
	if err != nil {
		return nil, err
	}
	weightsB, err := want(secWeights, 8, h.n)
	if err != nil {
		return nil, err
	}
	labelOffB, err := want(secLabelOff, 8, h.n+1)
	if err != nil {
		return nil, err
	}
	labelBlob, _, err := h.section(data, secLabelBlob, 1, -1)
	if err != nil {
		return nil, err
	}
	descOffB, err := want(secDescOff, 8, h.n+1)
	if err != nil {
		return nil, err
	}
	descBlob, _, err := h.section(data, secDescBlob, 1, -1)
	if err != nil {
		return nil, err
	}
	relOffB, err := want(secRelOff, 8, h.nr+1)
	if err != nil {
		return nil, err
	}
	relBlob, _, err := h.section(data, secRelBlob, 1, -1)
	if err != nil {
		return nil, err
	}

	labels, err := stringViews(view[int64](labelOffB, h.n+1), labelBlob)
	if err != nil {
		return nil, err
	}
	descs, err := stringViews(view[int64](descOffB, h.n+1), descBlob)
	if err != nil {
		return nil, err
	}
	relNames, err := stringViews(view[int64](relOffB, h.nr+1), relBlob)
	if err != nil {
		return nil, err
	}

	g := graph.FromParts(
		view[int64](outOffB, h.n+1), view[int32](outDstB, h.m), view[int32](outRelB, h.m),
		view[int64](inOffB, h.n+1), view[int32](inSrcB, h.m), view[int32](inRelB, h.m),
		labels, descs, relNames)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	d := &Dump{
		Name:      h.name,
		Graph:     g,
		Weights:   view[float64](weightsB, h.n),
		AvgDist:   h.avgDist,
		Deviation: h.deviation,
		src:       src,
	}
	d.Source.Format = version3
	d.Source.Bytes = int64(len(data))

	if h.flags&flagHasIndex != 0 {
		termOffB, err := want(secTermOff, 8, h.terms+1)
		if err != nil {
			return nil, err
		}
		termBlob, _, err := h.section(data, secTermBlob, 1, -1)
		if err != nil {
			return nil, err
		}
		postOffB, err := want(secPostOff, 8, h.terms+1)
		if err != nil {
			return nil, err
		}
		postB, postE, err := h.section(data, secPostIDs, 4, -1)
		if err != nil {
			return nil, err
		}
		names, err := stringViews(view[int64](termOffB, h.terms+1), termBlob)
		if err != nil {
			return nil, err
		}
		postOff := view[int64](postOffB, h.terms+1)
		postIDs := view[int32](postB, int(postE.count))
		if postOff[0] != 0 || postOff[h.terms] != int64(postE.count) {
			return nil, fmt.Errorf("storage: posting offsets do not span %d ids", postE.count)
		}
		postings := make([][]graph.NodeID, h.terms)
		for i := 0; i < h.terms; i++ {
			lo, hi := postOff[i], postOff[i+1]
			if lo > hi {
				return nil, fmt.Errorf("storage: non-monotone posting offsets at term %d", i)
			}
			for _, v := range postIDs[lo:hi] {
				if v < 0 || int(v) >= h.n {
					return nil, fmt.Errorf("storage: posting references node %d of %d", v, h.n)
				}
			}
			postings[i] = postIDs[lo:hi]
		}
		ix, err := text.FromParts(names, postings)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		d.Index = ix
	}
	return d, nil
}

// VerifyDump checks every per-section CRC32 of a v3 image against its
// section table (the header CRC was already checked by the parse). It
// reads every byte, so it is for tests and offline integrity checks — not
// the serving startup path.
func VerifyDump(data []byte) error {
	h, err := parseV3Header(data)
	if err != nil {
		return err
	}
	for kind, e := range h.sections {
		if got := crc32.ChecksumIEEE(data[e.off : e.off+e.size]); got != e.crc {
			return fmt.Errorf("storage: section %d CRC mismatch (table %#x, computed %#x)", kind, e.crc, got)
		}
	}
	// Every byte after the header (the rest of page 0), between sections
	// and after the last one is written as zero padding; anything else
	// means the file was modified outside the CRC-covered ranges.
	covered := make([]sectionEntry, 0, len(h.sections))
	for _, e := range h.sections {
		covered = append(covered, e)
	}
	slices.SortFunc(covered, func(a, b sectionEntry) int { return cmp.Compare(a.off, b.off) })
	pos := uint64(84 + len(h.name) + numSections*sectionEntrySize + 4)
	checkZero := func(lo, hi uint64) error {
		for _, b := range data[lo:hi] {
			if b != 0 {
				return fmt.Errorf("storage: nonzero padding in [%d, %d)", lo, hi)
			}
		}
		return nil
	}
	// An empty section shares its offset with the next one, and a crafted
	// table may overlap sections, so the scan only moves forward.
	for _, e := range covered {
		if e.off > pos {
			if err := checkZero(pos, e.off); err != nil {
				return err
			}
		}
		pos = max(pos, e.off+e.size)
	}
	return checkZero(pos, uint64(len(data)))
}

// VerifyDumpFile fully verifies a v3 dump file: every section CRC, the
// zero padding between sections, and the structure a load checks.
func VerifyDumpFile(path string) error {
	f, size, err := openDump(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	if err := VerifyDump(data); err != nil {
		return err
	}
	_, err = parseV3(data, nil)
	return err
}

// maxV3Bytes bounds a v3 image (1 TiB) against absurd mappings from a
// corrupt size; real dumps at the 1<<28 count bound stay far below it.
const maxV3Bytes = 1 << 40

// noCopy makes go vet's copylocks check report any copy of a struct that
// holds it. It is zero-size, so as a first field it costs nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
