// Package parallel provides the low-level concurrency primitives used by the
// two-stage search: atomic bitsets for the FIdentifier / CIdentifier arrays,
// a dynamically scheduled worker pool mirroring OpenMP's dynamic schedule,
// and lock-free byte stores for the node-keyword matrix.
//
// The paper's lock-free argument (Theorem V.2) relies on all concurrent
// writes to a location writing the same value (1 into FIdentifier, l+1 into
// M). In Go, concurrent plain writes of identical values are still data races
// under the memory model, so the bitset and matrix use atomic operations with
// relaxed semantics via sync/atomic; the level barrier (fork/join between
// phases) provides the required happens-before edges between levels.
package parallel

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// noCopy makes go vet's copylocks check report any copy of a struct that
// holds it. It is zero-size, so as a first field it costs nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Bitset is a fixed-size bitset safe for concurrent Set/Get. All mutating
// operations other than Set/Clear assume exclusive access (they are called
// only between phases, under the level barrier). A Bitset must not be
// copied: a copy aliases the shared word storage.
type Bitset struct {
	_ noCopy
	// words is written concurrently by all workers during a phase; the
	// atomic element type leaves no way to touch a word without an atomic.
	words []atomic.Uint64
	n     int
}

// NewBitset returns a Bitset capable of holding n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]atomic.Uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set holds.
func (b *Bitset) Len() int { return b.n }

// Set atomically sets bit i. Safe for concurrent use.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits].Or(1 << (uint(i) % wordBits))
}

// SetTouch atomically sets bit i and reports the bit's word index plus
// whether this call was the first to touch a previously-empty word. The
// atomic OR linearizes concurrent setters, so for any word exactly one
// caller observes the empty→non-empty transition — per-worker touched-word
// lists built from it partition the dirty words with no duplicates, letting
// frontier extraction and reset skip clean words entirely. Safe for
// concurrent use.
func (b *Bitset) SetTouch(i int) (word int, first bool) {
	wi := i / wordBits
	bit := uint64(1) << (uint(i) % wordBits)
	// Saturated regions re-mark already-flagged nodes constantly; a plain
	// load there avoids the contended read-modify-write. Whoever performed
	// the winning OR still gets (and keeps) the first-touch credit.
	if b.words[wi].Load()&bit != 0 {
		return wi, false
	}
	old := b.words[wi].Or(bit)
	return wi, old == 0
}

// DrainWord appends the indices of the set bits of word wi to dst in
// ascending order and clears the word. Requires exclusive access, so it
// clears the word with a plain store rather than a locked exchange. Draining
// exactly the touched words in ascending word order reproduces AppendSet's
// canonical ascending frontier without scanning the whole set.
func (b *Bitset) DrainWord(wi int, dst []int32) []int32 {
	w := b.words[wi].Load()
	clear(b.words[wi : wi+1])
	base := int32(wi * wordBits)
	for w != 0 {
		tz := bits.TrailingZeros64(w)
		dst = append(dst, base+int32(tz))
		w &= w - 1
	}
	return dst
}

// Get reports whether bit i is set. Safe for concurrent use with Set on
// other bits; reads of a concurrently-written bit are linearized by the
// atomic load.
func (b *Bitset) Get(i int) bool {
	return b.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// Reset zeroes the whole set. Requires exclusive access, so it clears the
// words with plain stores instead of one atomic store per word.
func (b *Bitset) Reset() { clear(b.words) }

// Resize re-dimensions the set to hold n bits, all zero, reusing the backing
// array when its capacity suffices (the per-query state pool relies on this
// being allocation-free at steady state). Requires exclusive access.
func (b *Bitset) Resize(n int) {
	words := (n + wordBits - 1) / wordBits
	if cap(b.words) < words {
		b.words = make([]atomic.Uint64, words)
	} else {
		b.words = b.words[:words]
		clear(b.words)
	}
	b.n = n
}

// Count returns the number of set bits. Requires exclusive access.
func (b *Bitset) Count() int {
	c := 0
	for i := range b.words {
		c += bits.OnesCount64(b.words[i].Load())
	}
	return c
}

// AppendSet appends the indices of all set bits to dst and returns it.
// Requires exclusive access. This is the sequential frontier-enqueue step of
// Algorithm 1 ("on CPU locked writing is so expensive and the fastest way is
// to enqueue frontiers in a sequential manner").
func (b *Bitset) AppendSet(dst []int32) []int32 {
	for wi := range b.words {
		w := b.words[wi].Load()
		base := int32(wi * wordBits)
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+int32(tz))
			w &= w - 1
		}
	}
	return dst
}
