package core

import (
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// Infinity marks a never-hit cell in the node-keyword matrix (the paper's ∞;
// one byte per hitting level, §V-B).
const Infinity = parallel.Infinity

// Matrix is the node-keyword matrix M: mij records the hitting level of
// node v_i w.r.t. BFS instance B_j. It is the only structure the expansion
// kernel writes concurrently, and all concurrent writes to one cell write
// the same value (Theorem V.2), so atomic byte stores suffice — no locks.
//
// Rows are padded to a multiple of eight cells so every row starts on a
// uint64 word boundary: MissMask and AllHit then test a q ≤ 8 row with one
// atomic load, and larger rows with ⌈q/8⌉ loads, never straddling words.
// Padding cells stay at Infinity and are masked out of every query. A
// Matrix must not be copied: a copy aliases the shared cell storage while
// forking the dimension fields.
//
//wikisearch:nocopy
type Matrix struct {
	cells   *parallel.ByteArray
	q       int
	stride  int    // bytes per row: q rounded up to a multiple of 8
	colMask uint64 // low q bits
}

// rowStride returns q rounded up to a whole number of 8-byte words.
func rowStride(q int) int { return (q + 7) &^ 7 }

// NewMatrix allocates an n×q matrix filled with Infinity.
func NewMatrix(n, q int) *Matrix {
	m := &Matrix{}
	m.dimension(n, q, true)
	return m
}

// Reset re-dimensions the matrix to n×q and refills it with Infinity,
// reusing the cell storage when capacity suffices — the state pool's
// allocation-free steady state depends on it. Requires exclusive access.
func (m *Matrix) Reset(n, q int) {
	m.dimension(n, q, false)
}

func (m *Matrix) dimension(n, q int, fresh bool) {
	m.q = q
	m.stride = rowStride(q)
	m.colMask = ^uint64(0) >> uint(64-q)
	if fresh {
		m.cells = parallel.NewByteArray(n*m.stride, Infinity)
	} else {
		m.cells.Resize(n*m.stride, Infinity)
	}
}

// Q returns the number of keyword columns.
func (m *Matrix) Q() int { return m.q }

// Get returns the hitting level of node v for keyword j.
//
//wikisearch:hotpath
func (m *Matrix) Get(v graph.NodeID, j int) uint8 { return m.cells.Get(int(v)*m.stride + j) }

// Set stores the hitting level of node v for keyword j.
//
//wikisearch:hotpath
func (m *Matrix) Set(v graph.NodeID, j int, level uint8) { m.cells.Set(int(v)*m.stride+j, level) }

// MarkHit stores the hitting level of node v for keyword j with a single
// atomic AND (no CAS loop). Valid only for the search's ∞ → level transition
// — the cell must currently be Infinity or already hold level.
//
//wikisearch:hotpath
func (m *Matrix) MarkHit(v graph.NodeID, j int, level uint8) {
	m.cells.SetMonotone(int(v)*m.stride+j, level)
}

// MarkHitsWord stores level into every column of node v named by colMask
// (bit j → column j) with one atomic AND — the whole visit of a neighbor,
// across all keyword columns, in a single operation. Valid only under
// MarkHit's ∞ → level precondition and only when the row fits one word
// (q ≤ 8, i.e. WordsPerRow() == 1).
//
//wikisearch:hotpath
func (m *Matrix) MarkHitsWord(v graph.NodeID, colMask uint64, level uint8) {
	m.cells.SetMonotoneFlags(int(v), colMask, level)
}

// Hit reports whether node v has been hit by BFS instance j.
//
//wikisearch:hotpath
func (m *Matrix) Hit(v graph.NodeID, j int) bool { return m.Get(v, j) != Infinity }

// AllHit reports whether node v has been hit by every BFS instance — the
// Central Node condition of Definition 3.
//
//wikisearch:hotpath
func (m *Matrix) AllHit(v graph.NodeID) bool { return m.MissMask(v) == 0 }

// MaxHit returns the largest finite hitting level of node v — the Central
// Graph depth of Eq. 1 when v is central. The second return is false when
// some instance never hit v.
//
//wikisearch:hotpath
func (m *Matrix) MaxHit(v graph.NodeID) (uint8, bool) {
	var mx uint8
	base := int(v) * m.stride
	for j := 0; j < m.q; j++ {
		h := m.cells.Get(base + j)
		if h == Infinity {
			return 0, false
		}
		if h > mx {
			mx = h
		}
	}
	return mx, true
}

// Row copies node v's hitting levels into dst (len q) with word-wide loads.
//
//wikisearch:hotpath
func (m *Matrix) Row(v graph.NodeID, dst []uint8) {
	m.cells.LoadRow(int(v)*m.stride, dst)
}

// MissMask returns a bitmask with bit j set iff node v has not been hit by
// BFS instance j (cell == Infinity). Thanks to the padded stride one aligned
// word-wide load covers eight columns, so the flattened kernel tests all q
// instances of a neighbor in one or two loads instead of q point reads.
//
//wikisearch:hotpath
func (m *Matrix) MissMask(v graph.NodeID) uint64 { return m.matchRow(v, Infinity) }

// KeywordMask returns a bitmask with bit j set iff node v contains keyword
// j (v ∈ T_j). Only Initialization writes a 0 and every hit writes l+1 ≥ 1,
// so a row's zero cells are exactly its keyword columns at any point of a
// search, and the matrix doubles as the containment array.
//
//wikisearch:hotpath
func (m *Matrix) KeywordMask(v graph.NodeID) uint64 { return m.matchRow(v, 0) }

// matchRow returns the columns of node v's row whose cell equals b.
//
//wikisearch:hotpath
func (m *Matrix) matchRow(v graph.NodeID, b uint8) uint64 {
	wi := int(v) * (m.stride >> 3)
	mask := m.cells.MatchWord(wi, b)
	for k := 1; k < m.stride>>3; k++ {
		mask |= m.cells.MatchWord(wi+k, b) << uint(k*8)
	}
	return mask & m.colMask
}

// WordsPerRow returns the number of uint64 words a padded row spans (1 for
// q ≤ 8 — the common case the expansion kernel specializes for).
//
//wikisearch:hotpath
func (m *Matrix) WordsPerRow() int { return m.stride >> 3 }

// Words exposes the backing words, one row per WordsPerRow() words. Hot
// loops combine it with parallel.MatchFlags to test a whole row per atomic
// load without any call overhead; everything else should use the cell API.
//
//wikisearch:atomicalias
//wikisearch:hotpath
func (m *Matrix) Words() []uint64 { return m.cells.Words() }

// ByteSize returns the matrix footprint in bytes (including row padding),
// for the storage accounting of Table IV.
func (m *Matrix) ByteSize() int64 { return int64(m.cells.Len()) }
