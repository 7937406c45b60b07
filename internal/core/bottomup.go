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

// group is one query multiplexed into the shared search state: it owns the
// contiguous matrix columns [off, off+q) and carries the per-query
// bookkeeping that keeps Lemma V.1 and the top-down extraction exact per
// query — Central Node identification, termination and depth d are all
// evaluated against the group's column submask, never the whole matrix. A
// solo search is the one-group special case spanning every column. A group
// must not be copied: a copy aliases the centralAt and centrals buffers.
//
//wikisearch:nocopy
type group struct {
	off  int    // first matrix column owned by this query
	q    int    // number of keyword columns
	mask uint64 // columns [off, off+q) as a bitmask

	topK         int
	maxLevel     int
	noLevelCover bool

	done  bool
	depth int // d of the query's top-(k,d) problem, set when the group finishes

	// centralAt[v] is the BFS level at which v was identified central for
	// this query, notCentral otherwise; levels never exceed MaxLevel ≤ 250,
	// so one byte per node holds them.
	centralAt []uint8
	centrals  []graph.NodeID // identification order
	front     int            // frontier entries owned by this group at the current level (multi only)
	truncated int            // Central Graphs of this query the MaxGraphNodes cap truncated (set by stage two)
}

// notCentral marks a node not (yet) identified central in group.centralAt.
const notCentral = 0xFF

// state carries the shared structures of one two-stage search: the
// lock-free arrays of §V-B (node-keyword matrix M, FIdentifier) plus
// frontier bookkeeping, partitioned into per-query column groups. A state
// is reusable: prepare re-dimensions and resets every structure in place,
// so a pooled state serves queries without allocating on the hot path (see
// SearchState). A state must not be copied: a copy aliases every shared
// search structure.
//
//wikisearch:nocopy
type state struct {
	in   Input
	p    Params
	pool *parallel.Pool

	m   *Matrix
	fid *parallel.Bitset // FIdentifier: frontier flags for the next level

	// groups partitions the matrix columns per query; solo searches use a
	// single group spanning all columns. Backed by groupsBuf so a pooled
	// state re-dimensions without allocating.
	groups    []group
	groupsBuf [MaxBatchQueries]group
	live      uint8  // bitmask of groups still searching
	liveCols  uint64 // union of live groups' column masks
	multi     bool   // len(groups) > 1: owner-group attribution active

	// gfid holds each node's owner-group byte — bit g set iff the node is a
	// next-level frontier of group g. Written with atomic ORs during
	// expansion, consumed and cleared by the sequential drain (multi only).
	gfid    *parallel.ByteArray
	fgroups []uint8 // frontier[i]'s owner groups, parallel to frontier (multi only)

	frontier     []int32
	touchedWords []int32 // merged per-worker touched-word lists (enqueue scratch)
	scratch      []workerScratch
	tdr          tdRun // retained stage-two memory (see tdRun)
	level        int

	// Flattened batch input buffers, reused across batches so the warm
	// batched path stays allocation-free.
	batchTerms   []string
	batchSources [][]graph.NodeID

	// Prebound phase bodies, created once per state lifetime: steady-state
	// levels dispatch through the pool without allocating a closure.
	initFn          func(w, i int)
	identifyFn      func(i int)
	identifyBatchFn func(i int)
	expandFn        func(w, start, end int)
	expandBatchFn   func(w, start, end int)

	// buf is the owning SearchState's trace buffer (nil on the one-shot
	// state path); the bottom-up loop records per-level phase spans into
	// ring 0 — the loop runs on the calling goroutine, the pool records the
	// helpers' spans itself.
	buf *trace.Buffer

	prof Profile
}

// prepareShared re-dimensions and resets the group-independent search
// structures for a query over in with p, reusing prior allocations whenever
// capacities suffice.
func (s *state) prepareShared(in Input, p Params, pool *parallel.Pool) {
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
}

// bindPhases creates the prebound phase bodies. prepareShared calls it only
// while they are unbound, so a body set afterwards holds for the state's
// lifetime.
func (s *state) bindPhases() {
	s.initFn = s.initKeyword
	s.identifyFn = s.identifyOne
	s.identifyBatchFn = s.identifyBatchOne
	s.expandFn = s.expandChunk
	s.expandBatchFn = s.expandBatchChunk
}

// resetGroupRuntime resets the per-group runtime bookkeeping (central
// tracking, termination, owner-group attribution) after s.groups has been
// laid out.
func (s *state) resetGroupRuntime(n int) {
	s.live = 0
	s.liveCols = 0
	s.multi = len(s.groups) > 1
	for gi := range s.groups {
		gr := &s.groups[gi]
		gr.done = false
		gr.depth = 0
		gr.front = 0
		if cap(gr.centralAt) < n {
			gr.centralAt = make([]uint8, n)
		} else {
			gr.centralAt = gr.centralAt[:n]
		}
		fillBytes(gr.centralAt, notCentral)
		gr.centrals = gr.centrals[:0]
		s.live |= 1 << uint(gi)
		s.liveCols |= gr.mask
	}
	if s.multi {
		if s.gfid == nil {
			s.gfid = parallel.NewByteArray(n, 0)
		} else {
			s.gfid.Resize(n, 0)
		}
		s.fgroups = s.fgroups[:0]
	}
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

// prepareCommon is prepareShared plus the solo column-group layout: one
// group spanning every matrix column, with the query-level knobs taken from
// p. It performs no source initialization — the CPU path's prepare and the
// GPU path's device kernel layer that on top.
func (s *state) prepareCommon(in Input, p Params, pool *parallel.Pool) {
	s.prepareShared(in, p, pool)
	q := len(in.Sources)
	s.groups = s.groupsBuf[:1]
	gr := &s.groups[0]
	gr.off, gr.q, gr.mask = 0, q, allMask(q)
	gr.topK, gr.maxLevel, gr.noLevelCover = p.TopK, p.MaxLevel, p.DisableLevelCover
	s.resetGroupRuntime(in.G.NumNodes())
}

// prepare runs the Initialization phase of Algorithm 1 on a (re)used state:
// reset M and FIdentifier, set m_ij = 0 for keyword nodes and flag them as
// level-0 frontiers — one fork/join task per keyword, each writing disjoint
// columns. The zero cells are the query's containment record from then on
// (see Matrix.KeywordMask).
func (s *state) prepare(in Input, p Params, pool *parallel.Pool) {
	s.prepareCommon(in, p, pool)
	s.initSources()
}

// initSources runs the parallel per-keyword init tasks over whatever groups
// are laid out.
func (s *state) initSources() {
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
	if s.multi {
		gb := s.colGroups(uint64(1) << uint(i))
		for _, v := range s.in.Sources[i] {
			s.m.MarkHit(v, i, 0)
			s.markFrontierG(sc, v, gb)
		}
		return
	}
	for _, v := range s.in.Sources[i] {
		s.m.MarkHit(v, i, 0)
		s.markFrontier(sc, v)
	}
}

// colGroups returns the bitmask of groups owning any column in cols.
//
//wikisearch:hotpath
func (s *state) colGroups(cols uint64) uint8 {
	var gb uint8
	for gi := range s.groups {
		if cols&s.groups[gi].mask != 0 {
			gb |= 1 << uint(gi)
		}
	}
	return gb
}

// groupCols returns the union of the column masks of the groups in gb.
//
//wikisearch:hotpath
func (s *state) groupCols(gb uint8) uint64 {
	var cols uint64
	for ; gb != 0; gb &= gb - 1 {
		cols |= s.groups[bits.TrailingZeros8(gb)].mask
	}
	return cols
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

// markFrontierG is markFrontier plus owner-group attribution: the groups in
// gb claim v as one of their next-level frontiers. Only used when multiple
// queries share the state.
//
//wikisearch:hotpath
func (s *state) markFrontierG(sc *workerScratch, v graph.NodeID, gb uint8) {
	s.gfid.Or(int(v), gb)
	s.markFrontier(sc, v)
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
// When multiple queries share the state, the drain also attributes each
// frontier node to its owner groups: the node's gfid byte is consumed into
// fgroups and counted per group, giving every query exactly the frontier
// its solo search would have had.
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
	if !s.multi {
		return
	}
	s.fgroups = s.fgroups[:0]
	for gi := range s.groups {
		s.groups[gi].front = 0
	}
	for _, f := range s.frontier {
		gb := s.gfid.Get(int(f))
		s.gfid.ClearByte(int(f))
		s.fgroups = append(s.fgroups, gb)
		for ob := gb; ob != 0; ob &= ob - 1 {
			s.groups[bits.TrailingZeros8(ob)].front++
		}
	}
}

// identifyOne tests frontier entry i for the Central Node condition (solo).
//
//wikisearch:hotpath
func (s *state) identifyOne(i int) {
	v := graph.NodeID(s.frontier[i])
	gr := &s.groups[0]
	if gr.centralAt[v] != notCentral {
		return
	}
	if s.m.AllHit(v) {
		gr.centralAt[v] = uint8(s.level) // each frontier entry is unique: no race
	}
}

// identifyBatchOne tests frontier entry i for the Central Node condition of
// every live owner group: the group's submask of the node's miss mask must
// be empty (Definition 3 restricted to the query's columns). A node can
// only become all-hit for a group at the level the group's last column hits
// it, and at that level the group owns the node, so checking owner groups
// only is exact.
//
//wikisearch:hotpath
func (s *state) identifyBatchOne(i int) {
	v := graph.NodeID(s.frontier[i])
	owners := s.fgroups[i] & s.live
	if owners == 0 {
		return
	}
	miss := s.m.MissMask(v)
	for ; owners != 0; owners &= owners - 1 {
		gr := &s.groups[bits.TrailingZeros8(owners)]
		if gr.centralAt[v] != notCentral {
			continue
		}
		if miss&gr.mask == 0 {
			gr.centralAt[v] = uint8(s.level) // each frontier entry is unique: no race
		}
	}
}

// identifyCentrals scans the frontier for nodes hit by every BFS instance
// of their query (Definition 3) that are not yet central, and records the
// identification level, which by Lemma V.1 equals the depth of the Central
// Graph. Collection runs sequentially in frontier order so results are
// deterministic regardless of the number of threads.
func (s *state) identifyCentrals() {
	lvl := uint8(s.level)
	if s.multi {
		s.pool.For(len(s.frontier), s.identifyBatchFn)
		for fi, f := range s.frontier {
			for ob := s.fgroups[fi] & s.live; ob != 0; ob &= ob - 1 {
				gr := &s.groups[bits.TrailingZeros8(ob)]
				if gr.centralAt[f] == lvl {
					gr.centrals = append(gr.centrals, graph.NodeID(f))
				}
			}
		}
		return
	}
	s.pool.For(len(s.frontier), s.identifyFn)
	gr := &s.groups[0]
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
	fn := s.expandFn
	if s.multi {
		fn = s.expandBatchFn
	}
	s.pool.ForChunksWorker(len(s.frontier), fn)
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
	centralAt := s.groups[0].centralAt
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

// expandBatchChunk is the group-aware flattened kernel: like expandChunk,
// each frontier node's adjacency is walked exactly once for all multiplexed
// queries, but the active set is restricted to the columns of the node's
// live, non-central owner groups, and every frontier mark carries the owner
// groups it belongs to. Per group the writes are exactly the writes its
// solo search would perform, so batched results stay bit-identical.
//
//wikisearch:hotpath
func (s *state) expandBatchChunk(w, start, end int) {
	sc := &s.scratch[w]
	g := s.in.G
	l := s.level
	q := s.m.Q()
	row := sc.row[:q]
	var words []uint64 // non-nil iff a row is a single word (q ≤ 8)
	if s.m.WordsPerRow() == 1 {
		words = s.m.Words()
	}
	for fi := start; fi < end; fi++ {
		vf := graph.NodeID(s.frontier[fi])
		owners := s.fgroups[fi] & s.live
		avail := s.groupCols(owners)
		for ob := owners; ob != 0; ob &= ob - 1 {
			gr := &s.groups[bits.TrailingZeros8(ob)]
			if gr.centralAt[vf] != notCentral {
				avail &^= gr.mask // central for this query: unavailable for expansion
			}
		}
		if avail == 0 {
			continue
		}
		if int(s.in.Levels[vf]) > l {
			// Not yet active: stay a frontier of the remaining owners and
			// retry next level.
			s.markFrontierG(sc, vf, s.colGroups(avail))
			continue
		}
		s.m.Row(vf, row)
		var active uint64 // columns whose BFS frontier vf currently is (h ≤ l)
		for i := 0; i < q; i++ {
			if int(row[i]) <= l {
				active |= 1 << uint(i)
			}
		}
		active &= avail
		if active == 0 {
			continue
		}
		// One shared pass over the bi-directed adjacency serves every
		// multiplexed query — the batch layer's whole point.
		sc.edges += int64(g.Degree(vf))
		var retry uint8
		if words != nil {
			for _, vn := range g.OutNeighbors(vf) {
				wd := atomic.LoadUint64(&words[vn])
				if todo := active & parallel.MatchFlags(wd, Infinity); todo != 0 {
					retry |= s.visitTodoBatch(sc, vn, todo, parallel.MatchFlags(wd, 0), l)
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				wd := atomic.LoadUint64(&words[vn])
				if todo := active & parallel.MatchFlags(wd, Infinity); todo != 0 {
					retry |= s.visitTodoBatch(sc, vn, todo, parallel.MatchFlags(wd, 0), l)
				}
			}
		} else {
			for _, vn := range g.OutNeighbors(vf) {
				todo := active & s.m.MissMask(vn)
				if todo != 0 {
					retry |= s.visitTodoBatch(sc, vn, todo, s.m.KeywordMask(vn), l)
				}
			}
			for _, vn := range g.InNeighbors(vf) {
				todo := active & s.m.MissMask(vn)
				if todo != 0 {
					retry |= s.visitTodoBatch(sc, vn, todo, s.m.KeywordMask(vn), l)
				}
			}
		}
		if retry != 0 {
			s.markFrontierG(sc, vf, retry)
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

// visitTodoBatch is visitTodo with the §IV-B activation gate evaluated per
// owner group: a not-yet-active neighbor may only be hit by the queries for
// which it is a keyword node (its keyword columns kw within that group's
// submask); every other query retains its frontier and retries — exactly
// the decision its solo search would make against its own q-column matrix.
// Returns the groups that must retry.
//
//wikisearch:hotpath
func (s *state) visitTodoBatch(sc *workerScratch, vn graph.NodeID, todo, kw uint64, l int) (retry uint8) {
	if int(s.in.Levels[vn]) > l+1 {
		var ok uint64
		for ob := s.colGroups(todo); ob != 0; ob &= ob - 1 {
			gi := bits.TrailingZeros8(ob)
			if kw&s.groups[gi].mask != 0 {
				ok |= s.groups[gi].mask
			} else {
				retry |= 1 << uint(gi)
			}
		}
		todo &= ok
		if todo == 0 {
			return retry
		}
	}
	hit := uint8(l + 1)
	if s.m.WordsPerRow() == 1 {
		s.m.MarkHitsWord(vn, todo, hit) // all columns of every group in one atomic AND
	} else {
		for m := todo; m != 0; m &= m - 1 {
			s.m.MarkHit(vn, bits.TrailingZeros64(m), hit)
		}
	}
	s.markFrontierG(sc, vn, s.colGroups(todo))
	return retry
}

// finishGroup retires group gi at the current level: its depth d is fixed
// and its columns are frozen out of every subsequent expansion, so no cell
// of a finished query is ever written again — batched hitting levels stay
// bit-identical to the query's solo run.
func (s *state) finishGroup(gi int) {
	gr := &s.groups[gi]
	gr.done = true
	gr.depth = s.level
	s.live &^= 1 << uint(gi)
	s.liveCols &^= gr.mask
}

// bottomUp runs stage one of Algorithm 1 for every column group and returns
// d of the first group — the smallest depth at which at least k Central
// Nodes exist (Definition 4), or the level at which the search exhausted
// the graph or hit MaxLevel. Each group terminates independently, exactly
// when its solo search would: its own frontier empties, it collects topK
// centrals, or it reaches maxLevel. A cancelled context aborts between
// levels.
func (s *state) bottomUp() (int, error) {
	for {
		if err := cancelled(s.p); err != nil {
			return s.level, err
		}
		// lvl0/live open the level's trace span; phase timings share the
		// trace clock so profile and spans can never disagree.
		lvl0 := trace.Now()
		live := uint32(s.live)
		s.enqueueFrontiers()
		t1 := trace.Now()
		s.prof.Phases[PhaseEnqueue] += time.Duration(t1 - lvl0)
		front := int64(len(s.frontier))
		s.buf.Record(0, trace.KindEnqueue, lvl0, t1, s.level, live, front, 0)
		if len(s.frontier) == 0 {
			// Graph exhausted for every remaining query: fewer than k
			// Central Graphs exist.
			for gi := range s.groups {
				if !s.groups[gi].done {
					s.finishGroup(gi)
				}
			}
			s.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), s.level, live, 0, 0)
			break
		}
		if s.multi {
			// A group whose own frontier emptied is exhausted even while
			// others continue — nothing can ever be hit in its columns again.
			for gi := range s.groups {
				if gr := &s.groups[gi]; !gr.done && gr.front == 0 {
					s.finishGroup(gi)
				}
			}
			if s.live == 0 {
				s.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), s.level, live, front, 0)
				break
			}
		}

		t1 = trace.Now()
		prevCentrals := s.centralCount()
		s.identifyCentrals()
		t2 := trace.Now()
		s.prof.Phases[PhaseIdentify] += time.Duration(t2 - t1)
		s.buf.Record(0, trace.KindIdentify, t1, t2, s.level, uint32(s.live), front, s.centralCount()-prevCentrals)
		s.prof.Levels++
		for gi := range s.groups {
			gr := &s.groups[gi]
			if gr.done {
				continue
			}
			if len(gr.centrals) >= gr.topK || s.level >= gr.maxLevel {
				s.finishGroup(gi) // d found for this query
			}
		}
		if s.live == 0 {
			s.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), s.level, live, front, 0)
			break
		}

		t2 = trace.Now()
		prevEdges := s.prof.EdgesScanned
		s.expand()
		t3 := trace.Now()
		s.prof.Phases[PhaseExpand] += time.Duration(t3 - t2)
		edges := s.prof.EdgesScanned - prevEdges
		s.buf.Record(0, trace.KindExpand, t2, t3, s.level, uint32(s.live), front, edges)
		s.buf.Record(0, trace.KindLevel, lvl0, t3, s.level, live, front, edges)
		s.level++
	}
	return s.groups[0].depth, nil
}

// centralCount sums the Central Nodes collected so far across groups (a
// handful of length reads; used to attribute per-level identification
// counts to trace spans).
func (s *state) centralCount() int64 {
	var n int64
	for gi := range s.groups {
		n += int64(len(s.groups[gi].centrals))
	}
	return n
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
