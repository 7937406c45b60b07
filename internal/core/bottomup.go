package core

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// workerScratch is one worker's private expansion scratch: the frontier
// node's matrix row snapshot, the list of FIdentifier words this worker
// dirtied first (so the enqueue step visits only touched words instead of
// scanning the whole bitset), and the worker's edge-scan tally. The trailing
// pad keeps adjacent workers' hot fields off a shared cache line. A
// workerScratch must not be copied: a copy aliases the row and touched
// buffers.
type workerScratch struct {
	_       noCopy
	row     []uint8
	touched []int32
	edges   int64
	_       [64]byte
}

// group is the query's Central Node bookkeeping. A group must not be
// copied: a copy aliases the centralAt and centrals buffers.
type group struct {
	_ noCopy
	// centralAt[v] is the BFS level at which v was identified central,
	// notCentral otherwise; levels never exceed MaxLevel ≤ 250, so one byte
	// per node holds them.
	centralAt []uint8
	centrals  []graph.NodeID // identification order
}

// notCentral marks a node not (yet) identified central in group.centralAt.
const notCentral = 0xFF

// state carries the shared structures of one two-stage search: the
// lock-free arrays of §V-B (node-keyword matrix M, FIdentifier) plus
// frontier bookkeeping and the query's group; its methods are CPU-Par's
// steps of Algorithm 1. A state is reusable: initialize re-dimensions and
// resets every structure in place, so a pooled state serves queries without
// allocating on the hot path (see SearchState). A state must not be copied:
// a copy aliases every shared search structure.
type state struct {
	_    noCopy
	in   Input
	p    Params
	pool *parallel.Pool

	m   *Matrix
	fid *parallel.Bitset // FIdentifier: frontier flags for the next level

	gr group

	frontier     []int32
	touchedWords []int32 // merged per-worker touched-word lists (enqueue scratch)
	scratch      []workerScratch
	tdr          tdRun // retained stage-two memory (see tdRun)
	level        int

	// Prebound phase bodies, created once per state lifetime: steady-state
	// levels dispatch through the pool without allocating a closure.
	initFn     func(w, i int)
	identifyFn func(i int)
	expandFn   func(w, start, end int)
}

// prepareCommon re-dimensions and resets every search structure for the
// query in s.in with s.p on s.pool, reusing prior allocations whenever
// capacities suffice. It performs no source initialization — the CPU path's
// initialize and the GPU path's device kernel layer that on top.
func (s *state) prepareCommon() {
	n := s.in.G.NumNodes()
	q := len(s.in.Sources)
	if s.m == nil {
		s.m = NewMatrix(n, q)
	} else {
		s.m.Reset(n, q)
	}
	if s.fid == nil {
		s.fid = parallel.NewBitset(n)
	} else {
		s.fid.Resize(n)
	}
	s.frontier = s.frontier[:0]
	s.touchedWords = s.touchedWords[:0]
	w := s.pool.Workers()
	if cap(s.scratch) < w {
		s.scratch = make([]workerScratch, w)
	} else {
		s.scratch = s.scratch[:w]
	}
	for i := range s.scratch {
		if s.scratch[i].row == nil {
			s.scratch[i].row = make([]uint8, MaxKeywords)
		}
		s.scratch[i].touched = s.scratch[i].touched[:0]
		s.scratch[i].edges = 0
	}
	if s.initFn == nil {
		s.bindPhases()
	}
	gr := &s.gr
	if cap(gr.centralAt) < n {
		gr.centralAt = make([]uint8, n)
	} else {
		gr.centralAt = gr.centralAt[:n]
	}
	fillBytes(gr.centralAt, notCentral)
	gr.centrals = gr.centrals[:0]
}

// bindPhases creates the prebound phase bodies. prepareCommon calls it only
// while they are unbound, so a body set afterwards holds for the state's
// lifetime.
func (s *state) bindPhases() {
	s.initFn = s.initKeyword
	s.identifyFn = s.identifyOne
	s.expandFn = s.expandChunk
}

// fillBytes sets every byte of b to v by doubling copies, so the fill runs
// at memmove speed rather than a byte store per node.
func fillBytes(b []uint8, v uint8) {
	if len(b) == 0 {
		return
	}
	b[0] = v
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// initialize runs the Initialization phase of Algorithm 1 on a (re)used
// state: reset M and FIdentifier, set m_ij = 0 for keyword nodes and flag
// them as level-0 frontiers — one fork/join task per keyword, each writing
// disjoint columns. The zero cells are the query's containment record from
// then on (see Matrix.KeywordMask).
func (s *state) initialize() int {
	s.prepareCommon()
	s.pool.ForWorker(len(s.in.Sources), s.initFn)
	return len(s.in.Sources)
}

// initKeyword is the per-keyword initialization task run by worker w.
func (s *state) initKeyword(w, i int) {
	sc := &s.scratch[w]
	for _, v := range s.in.Sources[i] {
		s.m.MarkHit(v, i, 0)
		s.markFrontier(sc, v)
	}
}

// markFrontier flags v in FIdentifier and, when this worker is the first to
// dirty v's word, records the word in the worker's touched list. The lists
// across workers partition the dirty words exactly (the atomic OR linearizes
// the empty→non-empty transition), so enqueueFrontiers drains only dirty
// words instead of scanning and resetting the whole O(n) bitset per level.
func (s *state) markFrontier(sc *workerScratch, v graph.NodeID) {
	if wi, first := s.fid.SetTouch(int(v)); first {
		sc.touched = append(sc.touched, int32(wi))
	}
}

// enqueue extracts the frontier queue from FIdentifier and resets
// the flags — sequential on CPU, exactly as the paper found fastest (§V-B,
// "on CPU locked writing is so expensive and the fastest way is to enqueue
// frontiers in a sequential manner"). One joint frontier array serves all
// BFS instances. Only words recorded by markFrontier are visited: merging
// the per-worker touched lists, sorting them and draining each word in
// ascending order yields the same canonical ascending frontier as a full
// bitset scan at O(frontier) instead of O(n) cost.
func (s *state) enqueue() int {
	tw := s.touchedWords[:0]
	for i := range s.scratch {
		tw = append(tw, s.scratch[i].touched...)
		s.scratch[i].touched = s.scratch[i].touched[:0]
	}
	slices.Sort(tw)
	s.touchedWords = tw
	s.frontier = s.frontier[:0]
	for _, wi := range tw {
		s.frontier = s.fid.DrainWord(int(wi), s.frontier)
	}
	return len(s.frontier)
}

// identifyOne tests frontier entry i for the Central Node condition. No
// frontier entry is central already: a Central Node neither expands nor,
// hit in every column, is hit again.
func (s *state) identifyOne(i int) {
	v := graph.NodeID(s.frontier[i])
	if s.m.AllHit(v) {
		s.gr.centralAt[v] = uint8(s.level) // each frontier entry is unique: no race
	}
}

// identify scans the level-l frontier for nodes hit by every BFS instance
// (Definition 3) and records the identification level, which by Lemma V.1
// equals the depth of the Central Graph. Collection runs sequentially in
// frontier order so results are deterministic regardless of the number of
// threads.
func (s *state) identify(l int) int {
	s.level = l
	s.pool.For(len(s.frontier), s.identifyFn)
	gr := &s.gr
	found := len(gr.centrals)
	for _, f := range s.frontier {
		if gr.centralAt[f] == uint8(l) {
			gr.centrals = append(gr.centrals, graph.NodeID(f))
		}
	}
	return len(gr.centrals) - found
}

// expand runs Algorithm 2 (the Expansion procedure) for level l: every
// frontier not identified as central and active at this level expands each
// BFS instance it belongs to into its bi-directed neighbors. All writes are
// the idempotent lock-free writes of Theorem V.2.
func (s *state) expand(l int) int64 {
	s.level = l
	s.pool.ForChunksWorker(len(s.frontier), s.expandFn)
	var edges int64
	for i := range s.scratch {
		edges += s.scratch[i].edges
		s.scratch[i].edges = 0
	}
	return edges
}

// expandChunk is the flattened expansion kernel: each frontier
// node's CSR adjacency is walked exactly once, with all q keyword columns
// processed per neighbor through word-wide matrix reads, instead of one
// adjacency pass per column. The node's row is snapshotted once into
// per-worker scratch; cells of that row can concurrently flip ∞ → l+1, but
// both values exclude the column from the active set, so the snapshot
// decides identically to a just-in-time read.
func (s *state) expandChunk(w, start, end int) {
	sc := &s.scratch[w]
	g := s.in.G
	l := s.level
	q := s.m.Q()
	row := sc.row[:q]
	centralAt := s.gr.centralAt
	var words []atomic.Uint64 // non-nil iff a row is a single word (q ≤ 8)
	if s.m.WordsPerRow() == 1 {
		words = s.m.Words()
	}
	for fi := start; fi < end; fi++ {
		vf := graph.NodeID(s.frontier[fi])
		if centralAt[vf] != notCentral {
			continue // central nodes are unavailable for expansion
		}
		if int(s.in.Levels[vf]) > l {
			// Not yet active: stay a frontier and retry next level.
			s.markFrontier(sc, vf)
			continue
		}
		s.m.Row(vf, row)
		// Every frontier entry holds a hit at or below l, so active ≠ 0.
		var active uint64 // columns whose BFS frontier vf currently is (h ≤ l)
		for i := 0; i < q; i++ {
			if int(row[i]) <= l {
				active |= 1 << uint(i)
			}
		}
		// One pass over the bi-directed adjacency, regardless of how many
		// columns are active — this is the kernel's true edge-scan count.
		sc.edges += int64(g.Degree(vf))
		retry := false
		if active&(active-1) == 0 {
			// Single active column: a point read per neighbor beats the
			// word-wide mask, and there is no adjacency pass to amortize.
			i := bits.TrailingZeros64(active)
			for _, vn := range g.OutNeighbors(vf) {
				if s.visitOne(sc, vn, i, l) {
					retry = true
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				if s.visitOne(sc, vn, i, l) {
					retry = true
				}
			}
		} else if words != nil {
			// q ≤ 8: a row is one aligned word, so the miss filter — the
			// dominant work in saturated regions, where nearly every
			// neighbor is already hit in every active column — runs inline
			// with a single atomic load and no per-edge calls, and the same
			// word's zero cells say whether the neighbor is a keyword node.
			for _, vn := range g.OutNeighbors(vf) {
				wd := words[vn].Load()
				todo := active & parallel.MatchFlags(wd, Infinity)
				if todo != 0 && s.visitTodo(sc, vn, todo, parallel.MatchFlags(wd, 0), l) {
					retry = true
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				wd := words[vn].Load()
				todo := active & parallel.MatchFlags(wd, Infinity)
				if todo != 0 && s.visitTodo(sc, vn, todo, parallel.MatchFlags(wd, 0), l) {
					retry = true
				}
			}
		} else {
			for _, vn := range g.OutNeighbors(vf) {
				if s.visit(sc, vn, active, l) {
					retry = true
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				if s.visit(sc, vn, active, l) {
					retry = true
				}
			}
		}
		if retry {
			s.markFrontier(sc, vf)
		}
	}
}

// visitOne is visit specialized to a single active column i; it performs
// the identical writes, so the two paths are interchangeable.
func (s *state) visitOne(sc *workerScratch, vn graph.NodeID, i, l int) (retry bool) {
	if s.m.Get(vn, i) != Infinity {
		return false
	}
	// The activation level is the cheaper read (one byte per node); the row
	// word is needed only for a node not yet active.
	if int(s.in.Levels[vn]) > l+1 && s.m.KeywordMask(vn) == 0 {
		return true
	}
	s.m.MarkHit(vn, i, uint8(l+1))
	s.markFrontier(sc, vn)
	return false
}

// visit processes one neighbor for every active BFS instance in a single
// word-wide read: todo is the set of active columns that have not hit vn
// yet. Non-keyword nodes respect their activation level — they can only be
// hit once the next level reaches it; until then the expanding frontier is
// retained so the expansion retries (§IV-B).
func (s *state) visit(sc *workerScratch, vn graph.NodeID, active uint64, l int) (retry bool) {
	todo := active & s.m.MissMask(vn)
	if todo == 0 {
		return false // already hit in every active instance
	}
	return s.visitTodo(sc, vn, todo, s.m.KeywordMask(vn), l)
}

// visitTodo finishes a visit whose not-yet-hit active columns (todo, non-
// empty) and keyword columns (kw, see Matrix.KeywordMask) have already been
// computed.
func (s *state) visitTodo(sc *workerScratch, vn graph.NodeID, todo, kw uint64, l int) (retry bool) {
	if kw == 0 && int(s.in.Levels[vn]) > l+1 {
		return true
	}
	hit := uint8(l + 1)
	if s.m.WordsPerRow() == 1 {
		s.m.MarkHitsWord(vn, todo, hit) // all not-yet-hit columns in one atomic AND
	} else {
		for m := todo; m != 0; m &= m - 1 {
			s.m.MarkHit(vn, bits.TrailingZeros64(m), hit)
		}
	}
	s.markFrontier(sc, vn)
	return false
}

// ctxErr is ctx.Err() for a context that may be nil (a detached search).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
