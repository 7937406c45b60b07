package core

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/trace"
)

// workerScratch is one worker's private expansion scratch: the frontier
// node's matrix row snapshot, the list of FIdentifier words this worker
// dirtied first (so the enqueue step visits only touched words instead of
// scanning the whole bitset), and the worker's edge-scan tally. The trailing
// pad keeps adjacent workers' hot fields off a shared cache line. A
// workerScratch must not be copied: a copy aliases the row and touched
// buffers.
//
//wikisearch:nocopy
type workerScratch struct {
	row     []uint8
	touched []int32
	edges   int64
	_       [64]byte
}

// group is the query's Central Node bookkeeping. A group must not be
// copied: a copy aliases the centralAt and centrals buffers.
//
//wikisearch:nocopy
type group struct {
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
// frontier bookkeeping and the query's group. A state is reusable: prepare
// re-dimensions and resets every structure in place, so a pooled state
// serves queries without allocating on the hot path (see SearchState). A
// state must not be copied: a copy aliases every shared search structure.
//
//wikisearch:nocopy
type state struct {
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

	// buf is the owning SearchState's trace buffer (nil on the one-shot
	// state path); the bottom-up loop records per-level phase spans into
	// ring 0 — the loop runs on the calling goroutine, the pool records the
	// helpers' spans itself.
	buf *trace.Buffer

	prof Profile
}

// prepareCommon re-dimensions and resets every search structure for a query
// over in with p, reusing prior allocations whenever capacities suffice. It
// performs no source initialization — the CPU path's prepare and the GPU
// path's device kernel layer that on top.
func (s *state) prepareCommon(in Input, p Params, pool *parallel.Pool) {
	n := in.G.NumNodes()
	q := len(in.Sources)
	s.in, s.p, s.pool = in, p, pool
	s.level = 0
	s.prof = Profile{}
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
	w := pool.Workers()
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

// prepare runs the Initialization phase of Algorithm 1 on a (re)used state:
// reset M and FIdentifier, set m_ij = 0 for keyword nodes and flag them as
// level-0 frontiers — one fork/join task per keyword, each writing disjoint
// columns. The zero cells are the query's containment record from then on
// (see Matrix.KeywordMask).
func (s *state) prepare(in Input, p Params, pool *parallel.Pool) {
	s.prepareCommon(in, p, pool)
	s.pool.ForWorker(len(s.in.Sources), s.initFn)
}

// newState allocates a fresh single-use state (tests and the one-shot Search
// entry point; pooled serving goes through SearchState).
func newState(in Input, p Params, pool *parallel.Pool) *state {
	s := &state{}
	s.prepare(in, p, pool)
	return s
}

// initKeyword is the per-keyword initialization task run by worker w.
//
//wikisearch:hotpath
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
//
//wikisearch:hotpath
func (s *state) markFrontier(sc *workerScratch, v graph.NodeID) {
	if wi, first := s.fid.SetTouch(int(v)); first {
		sc.touched = append(sc.touched, int32(wi))
	}
}

// enqueueFrontiers extracts the frontier queue from FIdentifier and resets
// the flags — sequential on CPU, exactly as the paper found fastest (§V-B,
// "on CPU locked writing is so expensive and the fastest way is to enqueue
// frontiers in a sequential manner"). One joint frontier array serves all
// BFS instances. Only words recorded by markFrontier are visited: merging
// the per-worker touched lists, sorting them and draining each word in
// ascending order yields the same canonical ascending frontier as a full
// bitset scan at O(frontier) instead of O(n) cost.
//
//wikisearch:hotpath
func (s *state) enqueueFrontiers() {
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
	s.prof.FrontierTotal += int64(len(s.frontier))
}

// identifyOne tests frontier entry i for the Central Node condition.
//
//wikisearch:hotpath
func (s *state) identifyOne(i int) {
	v := graph.NodeID(s.frontier[i])
	gr := &s.gr
	if gr.centralAt[v] != notCentral {
		return
	}
	if s.m.AllHit(v) {
		gr.centralAt[v] = uint8(s.level) // each frontier entry is unique: no race
	}
}

// identifyCentrals scans the frontier for nodes hit by every BFS instance
// (Definition 3) that are not yet central, and records the
// identification level, which by Lemma V.1 equals the depth of the Central
// Graph. Collection runs sequentially in frontier order so results are
// deterministic regardless of the number of threads.
func (s *state) identifyCentrals() {
	lvl := uint8(s.level)
	s.pool.For(len(s.frontier), s.identifyFn)
	gr := &s.gr
	for _, f := range s.frontier {
		if gr.centralAt[f] == lvl {
			gr.centrals = append(gr.centrals, graph.NodeID(f))
		}
	}
}

// expand runs Algorithm 2 (the Expansion procedure) for the current level:
// every frontier not identified as central and active at this level expands
// each BFS instance it belongs to into its bi-directed neighbors. All
// writes are the idempotent lock-free writes of Theorem V.2.
func (s *state) expand() {
	s.pool.ForChunksWorker(len(s.frontier), s.expandFn)
	for i := range s.scratch {
		s.prof.EdgesScanned += s.scratch[i].edges
		s.scratch[i].edges = 0
	}
}

// expandChunk is the flattened expansion kernel: each frontier
// node's CSR adjacency is walked exactly once, with all q keyword columns
// processed per neighbor through word-wide matrix reads, instead of one
// adjacency pass per column. The node's row is snapshotted once into
// per-worker scratch; cells of that row can concurrently flip ∞ → l+1, but
// both values exclude the column from the active set, so the snapshot
// decides identically to a just-in-time read.
//
//wikisearch:hotpath
func (s *state) expandChunk(w, start, end int) {
	sc := &s.scratch[w]
	g := s.in.G
	l := s.level
	q := s.m.Q()
	row := sc.row[:q]
	centralAt := s.gr.centralAt
	var words []uint64 // non-nil iff a row is a single word (q ≤ 8)
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
		var active uint64 // columns whose BFS frontier vf currently is (h ≤ l)
		for i := 0; i < q; i++ {
			if int(row[i]) <= l {
				active |= 1 << uint(i)
			}
		}
		if active == 0 {
			continue
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
				wd := atomic.LoadUint64(&words[vn])
				todo := active & parallel.MatchFlags(wd, Infinity)
				if todo != 0 && s.visitTodo(sc, vn, todo, parallel.MatchFlags(wd, 0), l) {
					retry = true
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				wd := atomic.LoadUint64(&words[vn])
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
//
//wikisearch:hotpath
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
//
//wikisearch:hotpath
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
//
//wikisearch:hotpath
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

// bottomUp runs stage one of Algorithm 1 and returns d — the smallest depth
// at which at least k Central Nodes exist (Definition 4), or the level at
// which the search exhausted the graph or hit MaxLevel. A cancelled context
// aborts between levels.
func (s *state) bottomUp() (int, error) {
	gr := &s.gr
	for {
		if err := cancelled(s.p); err != nil {
			return s.level, err
		}
		// lvl0 opens the level's trace span; phase timings share the trace
		// clock so profile and spans can never disagree.
		lvl0 := trace.Now()
		s.enqueueFrontiers()
		t1 := trace.Now()
		s.prof.Phases[PhaseEnqueue] += time.Duration(t1 - lvl0)
		front := int64(len(s.frontier))
		s.buf.Record(0, trace.KindEnqueue, lvl0, t1, s.level, front, 0)
		if len(s.frontier) == 0 {
			// Graph exhausted: fewer than k Central Graphs exist.
			s.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), s.level, 0, 0)
			break
		}

		t1 = trace.Now()
		prevCentrals := len(gr.centrals)
		s.identifyCentrals()
		t2 := trace.Now()
		s.prof.Phases[PhaseIdentify] += time.Duration(t2 - t1)
		s.buf.Record(0, trace.KindIdentify, t1, t2, s.level, front, int64(len(gr.centrals)-prevCentrals))
		s.prof.Levels++
		if len(gr.centrals) >= s.p.TopK || s.level >= s.p.MaxLevel {
			// d found.
			s.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), s.level, front, 0)
			break
		}

		t2 = trace.Now()
		prevEdges := s.prof.EdgesScanned
		s.expand()
		t3 := trace.Now()
		s.prof.Phases[PhaseExpand] += time.Duration(t3 - t2)
		edges := s.prof.EdgesScanned - prevEdges
		s.buf.Record(0, trace.KindExpand, t2, t3, s.level, front, edges)
		s.buf.Record(0, trace.KindLevel, lvl0, t3, s.level, front, edges)
		s.level++
	}
	return s.level, nil
}

// cancelled reports the context error, if a context was set and fired.
func cancelled(p Params) error { return ctxErr(p.Ctx) }

// ctxErr is ctx.Err() for a context that may be nil (a detached search).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
