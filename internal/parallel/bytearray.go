package parallel

import "sync/atomic"

// ByteArray is a byte slice with atomic element access, used for the
// node-keyword matrix M (one byte per hitting level, 0xFF = ∞) and for the
// per-node activation cache. The paper's Theorem V.2 shows every concurrent
// write to one cell writes the same value (the current level + 1), so any
// interleaving yields the same contents; atomic accesses make that reasoning
// sound under the Go memory model without locks.
//
// Cells are packed eight per uint64 word, so one atomic load covers eight
// cells — the expansion kernel's word-wide row reads (LoadRow, MatchMask)
// are built on that. A ByteArray must not be copied: a copy aliases the
// shared cell storage.
//
//wikisearch:nocopy
type ByteArray struct {
	// data is written concurrently by all workers during a phase,
	// one byte per cell, packed 8 per word.
	//wikisearch:atomic
	data []uint64
	n    int
}

// Infinity is the matrix value meaning "never hit" (the paper's ∞).
const Infinity = 0xFF

const (
	lowBytes  = 0x0101010101010101 // 0x01 in every byte
	low7Bytes = 0x7F7F7F7F7F7F7F7F
)

// broadcast returns v replicated into every byte of a word.
func broadcast(v byte) uint64 { return uint64(v) * lowBytes }

// NewByteArray returns an array of n cells initialized to fill.
//
//wikisearch:exclusive construction precedes publication
func NewByteArray(n int, fill byte) *ByteArray {
	a := &ByteArray{data: make([]uint64, (n+7)/8), n: n}
	if fill != 0 {
		w := broadcast(fill)
		for i := range a.data {
			a.data[i] = w
		}
	}
	return a
}

// Len returns the number of cells.
func (a *ByteArray) Len() int { return a.n }

// Get atomically loads cell i.
//
//wikisearch:hotpath
func (a *ByteArray) Get(i int) byte {
	w := atomic.LoadUint64(&a.data[i>>3])
	return byte(w >> (uint(i&7) * 8))
}

// Set atomically stores v into cell i without disturbing neighbors.
// Concurrent Sets to the same cell must write the same value (which the
// search guarantees); concurrent Sets to different cells in one word are
// resolved by the CAS loop.
//
//wikisearch:hotpath
func (a *ByteArray) Set(i int, v byte) {
	shift := uint(i&7) * 8
	mask := uint64(0xFF) << shift
	val := uint64(v) << shift
	p := &a.data[i>>3]
	for {
		old := atomic.LoadUint64(p)
		nw := (old &^ mask) | val
		if old == nw || atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}

// SetMonotone stores v into cell i with a single atomic AND instead of a CAS
// loop. It requires that the cell's current value has every bit of v set —
// which holds for the search's only write, the one-shot ∞ (0xFF) → level
// transition — and is idempotent, so Theorem V.2's same-value concurrent
// writes commute exactly as with Set.
//
//wikisearch:hotpath
func (a *ByteArray) SetMonotone(i int, v byte) {
	shift := uint(i&7) * 8
	atomic.AndUint64(&a.data[i>>3], uint64(v)<<shift|^(uint64(0xFF)<<shift))
}

// SpreadFlags expands a low-8-bit flag mask into its byte mask: bit k set →
// byte k = 0xFF, the inverse direction of compressFlags. Pure SWAR, no
// branches or tables.
//
//wikisearch:hotpath
func SpreadFlags(flags uint64) uint64 {
	// Replicate the 8 flag bits into every byte, then isolate bit k in
	// byte k, so byte k ∈ {0, 1<<k}.
	m := (flags & 0xFF) * lowBytes & 0x8040201008040201
	// 0x80 - m_k borrows nothing across bytes (m_k ≤ 0x80) and leaves bit 7
	// set exactly when m_k == 0; collapse that to a 0/1 byte and invert.
	z := ((broadcast(0x80) - m) >> 7) & lowBytes // byte k = 1 iff flag k clear
	return (lowBytes - z) * 0xFF                 // byte k = 0xFF iff flag k set
}

// SetMonotoneFlags is SetMonotone for several cells of one word at once:
// it stores v into every byte of word wi selected by flags (bit k → byte k)
// with a single atomic AND. Each selected cell must satisfy SetMonotone's
// precondition (current value has every bit of v set); unselected cells are
// untouched. The expansion kernel uses it to commit a whole visit — all
// not-yet-hit columns of a neighbor — in one atomic operation.
//
//wikisearch:hotpath
func (a *ByteArray) SetMonotoneFlags(wi int, flags uint64, v byte) {
	bm := SpreadFlags(flags)
	atomic.AndUint64(&a.data[wi], broadcast(v)&bm|^bm)
}

// Fill resets every cell to v. Requires exclusive access.
//
//wikisearch:exclusive callers hold the only reference during (re)init
func (a *ByteArray) Fill(v byte) {
	w := broadcast(v)
	for i := range a.data {
		a.data[i] = w
	}
}

// Resize re-dimensions the array to n cells filled with fill, reusing the
// backing storage when its capacity suffices (the per-query state pool
// relies on this being allocation-free at steady state). Requires exclusive
// access.
//
//wikisearch:exclusive callers hold the only reference during (re)init
func (a *ByteArray) Resize(n int, fill byte) {
	words := (n + 7) / 8
	if cap(a.data) < words {
		a.data = make([]uint64, words)
	} else {
		a.data = a.data[:words]
	}
	a.n = n
	a.Fill(fill)
}

// LoadRow copies cells [base, base+len(dst)) into dst using word-wide atomic
// loads — one load per eight cells instead of one per cell. The expansion
// kernel uses it to snapshot a node's matrix row once per adjacency pass.
//
//wikisearch:hotpath
func (a *ByteArray) LoadRow(base int, dst []byte) {
	n := len(dst)
	i := 0
	for i < n {
		idx := base + i
		w := atomic.LoadUint64(&a.data[idx>>3])
		for off := idx & 7; off < 8 && i < n; off, i = off+1, i+1 {
			dst[i] = byte(w >> (uint(off) * 8))
		}
	}
}

// zeroBytes returns a flag word with bit 8p+7 set iff byte p of w is zero —
// the exact SWAR zero-byte detector (the classic (w-0x01…)&^w&0x80… variant
// has false positives above a zero byte; this one does not).
func zeroBytes(w uint64) uint64 {
	y := (w & low7Bytes) + low7Bytes
	return ^(y | w | low7Bytes)
}

// compressFlags compresses the eight per-byte flags (bits 7, 15, …, 63) of
// z into bits 0..7.
func compressFlags(z uint64) uint64 {
	return ((z >> 7) * 0x0102040810204080) >> 56
}

// MatchMask returns a bitmask with bit j set iff cell base+j equals v, for
// j in [0, q) with q <= 64. One word-wide atomic load covers eight cells,
// and a SWAR zero-byte detector compares them all at once — the kernel uses
// it to find a neighbor's not-yet-hit keyword columns in a single pass.
//
//wikisearch:hotpath
func (a *ByteArray) MatchMask(base, q int, v byte) uint64 {
	var mask uint64
	vb := broadcast(v)
	j := 0
	for j < q {
		idx := base + j
		w := atomic.LoadUint64(&a.data[idx>>3]) ^ vb // matching bytes become 0
		m8 := compressFlags(zeroBytes(w))
		off := idx & 7
		cnt := 8 - off
		if rem := q - j; cnt > rem {
			cnt = rem
		}
		mask |= (m8 >> uint(off)) & (1<<uint(cnt) - 1) << uint(j)
		j += cnt
	}
	return mask
}

// MatchWord returns the match flags of the eight cells of word wi (bit p set
// iff cell 8*wi+p equals v) with a single atomic load. Callers that keep
// rows word-aligned (the matrix pads its row stride) test a whole row in one
// call with no offset handling.
//
//wikisearch:hotpath
func (a *ByteArray) MatchWord(wi int, v byte) uint64 {
	return MatchFlags(atomic.LoadUint64(&a.data[wi]), v)
}

// MatchFlags returns a bitmask with bit p set iff byte p of w equals v. It
// is the pure SWAR core of MatchWord, exported so hot loops that hold the
// backing words (see Words) can test eight cells per load with everything
// inlined.
//
//wikisearch:hotpath
func MatchFlags(w uint64, v byte) uint64 {
	return compressFlags(zeroBytes(w ^ broadcast(v)))
}

// Words exposes the backing word slice (eight cells per word). Callers must
// access it with sync/atomic word operations and respect the same exclusive
// access rules as the cell API; it exists so the expansion kernel's inner
// loop can fold the word load into its own body.
//
//wikisearch:atomicalias
//wikisearch:hotpath
func (a *ByteArray) Words() []uint64 { return a.data }
