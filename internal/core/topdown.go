package core

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// Stage two of Algorithm 1 runs score first, assemble last. Every Central
// Node the bottom-up stage identified is extracted into per-worker scratch,
// level-cover-pruned and reduced to a compact tdRecord (score, depth, kept
// node ids); selectTopK ranks the records and applies the superset rule;
// only the ≤ k winners are extracted again — same matrix, same result — and
// built into Answers. A search with hundreds of centrals and k = 20 so
// allocates for twenty answers, not for hundreds of discarded ones.

// tdQuery is one query's view of a finished bottom-up stage: the stage
// itself, its keyword columns and the knobs stage two needs.
type tdQuery struct {
	src          cgSource
	q            int
	all          uint64  // allMask(q): every keyword
	centralAt    []uint8 // identification level per node, notCentral if none (matrix source only)
	weights      []float64
	lambda       float64
	noLevelCover bool
	maxNodes     int // MaxGraphNodes
	topK         int
	ctx          context.Context
}

// cgSource is a finished bottom-up stage as stage two reads it. The matrix
// search recovers hitting paths from hitting levels (Theorem V.4); CPU-Par-d
// replays the parents it recorded under locks.
type cgSource interface {
	// extract recovers the Central Graph centered at vc into sc and
	// returns its depth d(C).
	extract(sc *tdScratch, qc *tdQuery, vc graph.NodeID) int
	// row copies v's hitting levels for the query's q columns into dst.
	row(qc *tdQuery, v graph.NodeID, dst []uint8)
	// keywords returns the query keywords v contains.
	keywords(qc *tdQuery, v graph.NodeID) uint64
}

// tdEdge is one expansion step parent → child of an extraction, in
// extraction-local node indices. The same step may be recorded once per
// visit of its child with disjoint keyword sets; assembly merges them.
type tdEdge struct {
	from, to int32
	rel      graph.RelID
	forward  bool   // the stored directed edge runs parent → child
	kw       uint64 // keywords whose hitting paths take the step
}

// workItem is a (local node, fresh keyword bits) pair on the worklist.
type workItem struct {
	node int32
	bits uint64
}

// idSlot is one cell of the extraction's node-id table; it is live iff its
// gen equals the table's current generation.
type idSlot struct {
	key graph.NodeID
	gen uint32
	val int32
}

const (
	// tdMinSlots is the id-table window every extraction starts with.
	tdMinSlots = 128
	// fibHash spreads dense node ids over the window (multiplicative
	// hashing by 2^32/φ).
	fibHash = 0x9E3779B1
	// tdArenaKeep is the largest per-worker id arena (in ids; 256 KB) a
	// state retains between searches — room for some 2000 Central Graphs of
	// 30 kept nodes each, three times what solo-deep's queries average.
	tdArenaKeep = 1 << 16
	// tdRecordsKeep is the largest record table and selection order (in
	// entries; 384 KB of records) a state retains between searches — twelve
	// times the 664 centrals solo-deep's queries average.
	tdRecordsKeep = 1 << 13
)

// tdScratch is one worker's stage-two memory. An extraction lives in flat
// arrays indexed by extraction-local node index (discovery order, the
// Central Node at 0) plus an open-addressed id → index table; level-cover
// and scoring work on the same indices. Nothing is keyed by |V|: every
// array is sized by the largest extraction this worker has seen, and a new
// extraction pays only for what it uses itself — the arrays are re-sliced
// to the new length, and the table starts over in a tdMinSlots window under
// a fresh generation stamp (doubling, with a rehash, as the extraction
// grows), so a 4096-node extraction leaves nothing behind for the next
// 40-node one to clear. The scratch is retained across searches; what a
// warm top-down stage allocates is the ≤ k answers it returns. A tdScratch
// must not be copied: a copy aliases every buffer.
type tdScratch struct {
	_ noCopy
	// The extraction.
	ids       []graph.NodeID // local → node id
	has       []uint64       // local → window-local containment mask
	onPaths   []uint64       // local → keywords whose hitting paths traverse it
	edges     []tdEdge
	work      []workItem
	truncated bool // the MaxGraphNodes cap refused a node

	slots []idSlot
	mask  uint32 // window size − 1
	shift uint8  // 32 − log2(window size)
	gen   uint32

	// Level-cover (see levelCover).
	kws      []int32 // keyword nodes by containment count, descending
	keep     []bool  // local → survives pruning
	childOff []int32 // CSR over edges by parent: children of l are child[childOff[l]:childOff[l+1]]
	child    []int32
	stack    []int32

	arena    []graph.NodeID // kept-id slices of this run's records
	ansEdges []AnswerEdge   // assemble: edges before merge and copy-out
	_        [64]byte       // keep neighbouring workers off one cache line
}

// fit returns s re-sliced to n zeroed elements, reallocating only to grow.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin starts a new extraction centered at vc.
func (sc *tdScratch) begin(qc *tdQuery, vc graph.NodeID) {
	sc.ids = sc.ids[:0]
	sc.has = sc.has[:0]
	sc.onPaths = sc.onPaths[:0]
	sc.edges = sc.edges[:0]
	sc.work = sc.work[:0]
	sc.truncated = false
	sc.window(tdMinSlots)
	slot, _ := sc.find(vc)
	sc.insert(qc, slot, vc)
	sc.onPaths[0] = qc.all
	sc.work = append(sc.work, workItem{0, qc.all})
}

// window re-opens the id table empty with n slots (a power of two): a new
// generation invalidates every cell at once, so no cell is ever cleared
// except when the 32-bit stamp wraps.
func (sc *tdScratch) window(n int) {
	if len(sc.slots) < n {
		sc.slots = make([]idSlot, n) // doubles up to 2×MaxGraphNodes, then never
		sc.gen = 0
	}
	sc.mask = uint32(n - 1)
	sc.shift = uint8(32 - bits.TrailingZeros32(uint32(n)))
	sc.gen++
	if sc.gen == 0 {
		clear(sc.slots)
		sc.gen = 1
	}
}

// find probes the id table for v: local is v's index, or −1 with slot the
// cell where v belongs.
func (sc *tdScratch) find(v graph.NodeID) (slot uint32, local int32) {
	i := (uint32(v) * fibHash) >> sc.shift
	for {
		sl := &sc.slots[i]
		if sl.gen != sc.gen {
			return i, -1
		}
		if sl.key == v {
			return i, sl.val
		}
		i = (i + 1) & sc.mask
	}
}

// insert admits v, absent from the table, at the cell find returned. The
// window doubles before it is half full, so probes stay short.
func (sc *tdScratch) insert(qc *tdQuery, slot uint32, v graph.NodeID) int32 {
	l := int32(len(sc.ids))
	sc.slots[slot] = idSlot{key: v, gen: sc.gen, val: l}
	sc.ids = append(sc.ids, v)
	sc.has = append(sc.has, qc.src.keywords(qc, v))
	sc.onPaths = append(sc.onPaths, 0)
	if 2*len(sc.ids) > int(sc.mask)+1 {
		sc.window(2 * (int(sc.mask) + 1))
		for j, id := range sc.ids {
			s, _ := sc.find(id)
			sc.slots[s] = idSlot{key: id, gen: sc.gen, val: int32(j)}
		}
	}
	return l
}

// addParent records that vn expanded into the local node child on the
// hitting paths of the keywords in pm: the step becomes an edge, and
// keywords new to vn put it (back) on the worklist. A vn the extraction has
// not seen is admitted unless the MaxGraphNodes cap is reached; a refused
// node marks the extraction truncated and leaves no trace in it.
func (sc *tdScratch) addParent(qc *tdQuery, vn graph.NodeID, child int32, rel graph.RelID, forward bool, pm uint64) {
	slot, l := sc.find(vn)
	if l < 0 {
		if len(sc.ids) >= qc.maxNodes {
			sc.truncated = true
			return
		}
		l = sc.insert(qc, slot, vn)
	}
	sc.edges = append(sc.edges, tdEdge{from: l, to: child, rel: rel, forward: forward, kw: pm})
	if fresh := pm &^ sc.onPaths[l]; fresh != 0 {
		sc.onPaths[l] |= fresh
		sc.work = append(sc.work, workItem{l, fresh})
	}
}

// extract recovers the Central Graph centered at vc from the node-keyword
// matrix (Algorithm 3) and returns its depth. An un-capped Central Graph is
// a fixpoint — the nodes, path masks and steps reachable from vc by the
// parent rule — and does not depend on the order nodes are discovered in,
// so the walk takes each popped node's adjacency once for all of its fresh
// keywords. When MaxGraphNodes bites, which nodes got in does depend on the
// order, and the cap rule is pinned to the order the per-keyword walk
// yields: keyword-major from each popped node, out- then in-neighbours,
// last-found first. A walk that hits the cap is therefore abandoned and
// redone one keyword at a time, which reproduces that order; it depends on
// the matrix alone, never on Tnum or scheduling.
func (s *state) extract(sc *tdScratch, qc *tdQuery, vc graph.NodeID) int {
	depth := 0
	for i := 0; i < qc.q; i++ {
		if h := s.m.Get(vc, i); h != Infinity && int(h) > depth {
			depth = int(h) // d(C), Eq. 1: the largest hitting level
		}
	}
	sc.begin(qc, vc)
	for len(sc.work) > 0 && !sc.truncated {
		it := sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
		s.parents(sc, qc, it.node, it.bits)
	}
	if !sc.truncated {
		return depth
	}
	sc.begin(qc, vc)
	for len(sc.work) > 0 {
		it := sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
		for b := it.bits; b != 0; b &= b - 1 {
			s.parents(sc, qc, it.node, b&-b)
		}
	}
	return depth
}

// parents finds, in one pass over the adjacency of the local node vfl, its
// parents on the hitting paths of the keywords in kws, by the hitting-level
// heuristics of Theorem V.4: vn is a parent of vf for keyword i iff
// h_i(vf) = 1 + max(a_n, h_i(vn)) when vf contains query keywords, or
// 1 + max(a_n, h_i(vn), a_f − 1) when it does not. All qualifying parents
// are taken, which is what yields multi-path answers.
func (s *state) parents(sc *tdScratch, qc *tdQuery, vfl int32, kws uint64) {
	vf := sc.ids[vfl]
	// want[i] = h_i(vf) − 1: what max(a_n, h_i(vn)[, a_f − 1]) must equal.
	var want [MaxKeywords]uint8
	for b := kws; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		h := s.m.Get(vf, i)
		if h == 0 {
			kws &^= 1 << uint(i) // keyword source: hitting paths for i start here
			continue
		}
		want[i] = h - 1
	}
	if kws == 0 {
		return
	}
	floor := 0 // a_f − 1 binds only when vf contains no query keyword
	if sc.has[vfl] == 0 {
		floor = int(s.in.Levels[vf]) - 1
	}
	var words []atomic.Uint64 // non-nil iff a matrix row is a single word (≤ 8 columns)
	if s.m.WordsPerRow() == 1 {
		words = s.m.Words()
	}
	nbrs, rels := s.in.G.OutEdges(vf)
	for dir := 0; dir < 2; dir++ {
		if dir == 1 {
			nbrs, rels = s.in.G.InEdges(vf)
		}
		for k, vn := range nbrs {
			var row uint64
			if words != nil {
				row = words[vn].Load()
			}
			lvl := -1 // max(a_n, floor), read on first use
			var pm uint64
			for b := kws; b != 0; b &= b - 1 {
				i := bits.TrailingZeros64(b)
				var hin uint8
				if words != nil {
					hin = uint8(row >> (8 * uint(i)))
				} else {
					hin = s.m.Get(vn, i)
				}
				w := want[i]
				if hin > w {
					continue // never hit (∞), or hit too late to be a parent
				}
				if lvl < 0 {
					lvl = max(int(s.in.Levels[vn]), floor)
				}
				if lvl > int(w) || (lvl < int(w) && hin < w) {
					continue // max(lvl, hin) ≠ w
				}
				// A node identified central before the expansion level
				// became unavailable for expansion (§III-B), so it cannot
				// have been a real parent; without this filter extraction
				// could claim paths the search never traversed.
				if qc.centralAt[vn] <= w {
					continue
				}
				pm |= 1 << uint(i)
			}
			if pm != 0 {
				// An in-edge of vf is stored vn → vf: parent → child.
				sc.addParent(qc, vn, vfl, rels[k], dir == 1, pm)
			}
		}
	}
}

// row copies v's hitting levels for the query's columns into dst.
func (s *state) row(qc *tdQuery, v graph.NodeID, dst []uint8) { s.m.Row(v, dst) }

// keywords reads v's containment from the zero cells of its matrix row.
func (s *state) keywords(qc *tdQuery, v graph.NodeID) uint64 {
	return s.m.KeywordMask(v) & qc.all
}

// tdRecord is one scored Central Graph awaiting selection: everything
// ranking and the superset rule need, and nothing an Answer is built from.
// Its rank — identification order, the final tie-break — is its index.
type tdRecord struct {
	central   graph.NodeID
	depth     int32
	pruned    int32 // nodes removed by level-cover
	covers    bool  // kept nodes contain every keyword; false also marks a cancelled slot
	truncated bool  // the extraction hit the MaxGraphNodes cap
	score     float64
	ids       []graph.NodeID // kept node ids, ascending; aliases a worker's arena
}

// score prunes the extraction in sc (level-cover, unless ablated) and
// reduces it to rec. The weights are summed Central Node first, then
// ascending node id — the node order of the assembled Answer — so the score
// is bit-stable across thread counts and scheduling.
func (sc *tdScratch) score(qc *tdQuery, rec *tdRecord, depth int) {
	sc.prune(qc)
	start := len(sc.arena)
	var covered uint64
	for l, k := range sc.keep {
		if k {
			sc.arena = append(sc.arena, sc.ids[l])
			covered |= sc.has[l]
		}
	}
	kept := sc.arena[start:len(sc.arena):len(sc.arena)]
	slices.Sort(kept)
	central := sc.ids[0]
	sumW := qc.weights[central]
	for _, v := range kept {
		if v != central {
			sumW += qc.weights[v]
		}
	}
	rec.central = central
	rec.depth = int32(depth)
	rec.pruned = int32(len(sc.ids) - len(kept))
	rec.covers = covered == qc.all
	rec.truncated = sc.truncated
	rec.score = Score(depth, sumW, qc.lambda)
	rec.ids = kept
}

// prune fills sc.keep for the extraction in sc: level-cover, or everything
// when the query ablates it.
func (sc *tdScratch) prune(qc *tdQuery) {
	if !qc.noLevelCover {
		sc.levelCover(qc.all)
		return
	}
	sc.keep = fit(sc.keep, len(sc.ids))
	for l := range sc.keep {
		sc.keep[l] = true
	}
}

// assemble builds the Answer of a selected record from its Central Graph,
// extracted again into sc. Nodes come Central Node first, then ascending id;
// edges by (From, To, Rel, Forward) — so answers are identical regardless
// of thread count or scheduling.
func (sc *tdScratch) assemble(qc *tdQuery, rec *tdRecord) *Answer {
	sc.prune(qc)
	q := qc.q
	nodes := make([]AnswerNode, 0, len(rec.ids))
	rows := make([]uint8, len(rec.ids)*q) // one backing array for all rows
	add := func(v graph.NodeID) {
		_, l := sc.find(v)
		ki := len(nodes)
		row := rows[ki*q : (ki+1)*q : (ki+1)*q]
		qc.src.row(qc, v, row)
		nodes = append(nodes, AnswerNode{ID: v, Contains: sc.has[l], OnPaths: sc.onPaths[l], HitLevels: row})
	}
	add(rec.central)
	for _, v := range rec.ids {
		if v != rec.central {
			add(v)
		}
	}
	es := sc.ansEdges[:0]
	for _, e := range sc.edges {
		if sc.keep[e.from] && sc.keep[e.to] {
			es = append(es, AnswerEdge{From: sc.ids[e.from], To: sc.ids[e.to], Rel: e.rel, Forward: e.forward, Keywords: e.kw})
		}
	}
	slices.SortFunc(es, cmpAnswerEdge)
	n := 0
	for _, e := range es {
		if n > 0 && cmpAnswerEdge(es[n-1], e) == 0 {
			es[n-1].Keywords |= e.Keywords // the same step, found for other keywords
			continue
		}
		es[n] = e
		n++
	}
	sc.ansEdges = es
	edges := make([]AnswerEdge, n)
	copy(edges, es)
	return &Answer{
		Central:     rec.central,
		Depth:       int(rec.depth),
		Score:       rec.score,
		Nodes:       nodes,
		Edges:       edges,
		PrunedNodes: int(rec.pruned),
	}
}

// cmpAnswerEdge orders edges by (From, To, Rel), forward before backward.
func cmpAnswerEdge(a, b AnswerEdge) int {
	switch {
	case a.From != b.From:
		return int(a.From) - int(b.From)
	case a.To != b.To:
		return int(a.To) - int(b.To)
	case a.Rel != b.Rel:
		return int(a.Rel) - int(b.Rel)
	case a.Forward == b.Forward:
		return 0
	case a.Forward:
		return -1
	}
	return 1
}

// tdRun is the stage-two memory a state retains across searches — one
// scratch per worker, the record table, the selection order — plus the
// context of the run in progress, which the prebound scoring body reads so
// a warm scoring pass dispatches through the pool without allocating a
// closure. A tdRun must not be copied: a copy aliases every buffer.
type tdRun struct {
	_ noCopy
	// td is sliced per worker: worker w touches only td[w], so the slots
	// need no synchronization beyond the pool's fork/join barrier. A slot
	// two workers share fails the variant equivalence tests, and -race
	// reports it.
	td    []tdScratch
	recs  []tdRecord // recs[i] scores centrals[i]
	order []int32    // selectTopK: record indices, ranked

	qc       tdQuery
	centrals []graph.NodeID
	out      []*Answer // out[j] answers the j-th selected record, order[j]

	scoreFn func(w, i int) // scoreOne, bound once per tdRun
}

// begin opens a run over centrals for the query already set in r.qc.
func (r *tdRun) begin(pool *parallel.Pool, centrals []graph.NodeID) {
	if w := pool.Workers(); cap(r.td) < w {
		r.td = make([]tdScratch, w)
	} else {
		r.td = r.td[:w]
	}
	r.recs = fit(r.recs, len(centrals))
	r.centrals = centrals
	if r.scoreFn == nil {
		r.scoreFn = r.scoreOne
	}
}

// end drops the run's references so a pooled state does not pin the
// caller's graph, sources or answers between queries, and lets go of the
// tables only an outsized query needed: the record table and the selection
// order hold one entry per central, and a worker's arena the kept ids of
// every Central Graph it scored, so a query with tens of thousands of
// centrals grows them by megabytes that an ordinary query (hundreds of
// centrals, tens of ids each) never touches again.
func (r *tdRun) end() {
	r.qc = tdQuery{}
	r.centrals, r.out = nil, nil
	clear(r.recs) // their id slices would pin every arena block they alias
	if cap(r.recs) > tdRecordsKeep {
		r.recs = nil
	}
	if cap(r.order) > tdRecordsKeep {
		r.order = nil
	}
	for w := range r.td {
		if cap(r.td[w].arena) > tdArenaKeep {
			r.td[w].arena = nil
		}
	}
}

// scoreOne extracts, prunes and scores centrals[i] on worker w's scratch.
func (r *tdRun) scoreOne(w, i int) {
	if ctxErr(r.qc.ctx) != nil {
		return // drained quickly; the zero record covers nothing, so selectTopK skips it
	}
	sc := &r.td[w]
	depth := r.qc.src.extract(sc, &r.qc, r.centrals[i])
	sc.score(&r.qc, &r.recs[i], depth)
}

// scoreAll runs the scoring pass: every Central Graph extracted, pruned and
// scored in parallel with dynamic scheduling ("we let one thread recover
// one or more Central Graphs", §V-C), each worker on its own scratch. On a
// warm state it allocates nothing.
func (r *tdRun) scoreAll(pool *parallel.Pool) {
	for w := range r.td {
		r.td[w].arena = r.td[w].arena[:0]
	}
	pool.ForWorker(len(r.centrals), r.scoreFn)
}

// assembleOne re-extracts the j-th selected Central Graph — the walk is
// deterministic, so it recovers exactly what was scored — and builds its
// Answer.
func (r *tdRun) assembleOne(w, j int) {
	if ctxErr(r.qc.ctx) != nil {
		return
	}
	sc := &r.td[w]
	rec := &r.recs[r.order[j]]
	r.qc.src.extract(sc, &r.qc, rec.central)
	r.out[j] = sc.assemble(&r.qc, rec)
}

// run is stage two of Algorithm 1 for the query in r.qc: score every
// Central Graph, select the top-k, assemble the winners. It returns the
// answers and the number of Central Graphs the MaxGraphNodes cap truncated.
func (r *tdRun) run(pool *parallel.Pool, centrals []graph.NodeID) ([]*Answer, int, error) {
	r.begin(pool, centrals)
	defer r.end()
	r.scoreAll(pool)
	if err := ctxErr(r.qc.ctx); err != nil {
		return nil, 0, err
	}
	capped := 0
	for i := range r.recs {
		if r.recs[i].truncated {
			capped++
		}
	}
	r.order = selectTopK(r.recs, r.order[:0], r.qc.topK)
	if len(r.order) == 0 {
		return nil, capped, nil
	}
	r.out = make([]*Answer, len(r.order))
	pool.ForWorker(len(r.order), r.assembleOne)
	if err := ctxErr(r.qc.ctx); err != nil {
		return nil, 0, err
	}
	return r.out, capped, nil
}

// topDown runs stage two of Algorithm 1 on the state's retained memory.
func (s *state) topDown() ([]*Answer, int, error) {
	s.tdr.qc = s.queryOf()
	return s.tdr.run(s.pool, s.gr.centrals)
}

// queryOf is the query's view of the finished bottom-up stage.
func (s *state) queryOf() tdQuery { return newQuery(s, s.in, s.p, s.gr.centralAt) }

// newQuery is the view stage two takes of the query in with p, finished
// bottom-up by src; centralAt is the matrix source's identification levels.
func newQuery(src cgSource, in Input, p Params, centralAt []uint8) tdQuery {
	q := len(in.Sources)
	return tdQuery{
		src:          src,
		q:            q,
		all:          allMask(q),
		centralAt:    centralAt,
		weights:      in.Weights,
		lambda:       p.Lambda,
		noLevelCover: p.DisableLevelCover,
		maxNodes:     p.MaxGraphNodes,
		topK:         p.TopK,
		ctx:          p.Ctx,
	}
}

// selectTopK ranks the records by (score, depth, identification order) into
// order and keeps the best k, dropping (a) records that do not cover every
// keyword (defensive: only possible under extraction caps) and cancelled
// slots, and (b) Central Graphs that completely contain a better-ranked,
// smaller answer ("we remove the Central Graph that completely contains
// smaller ones", §VI-B). It returns the selected record indices, best
// first, in order's backing array.
func selectTopK(recs []tdRecord, order []int32, k int) []int32 {
	for i := range recs {
		if recs[i].covers {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &recs[a], &recs[b]
		switch {
		case ra.score != rb.score:
			if ra.score < rb.score {
				return -1
			}
			return 1
		case ra.depth != rb.depth:
			return int(ra.depth - rb.depth)
		}
		return int(a - b)
	})
	n := 0 // order[:n] is selected; the compaction never overtakes the scan
	for _, c := range order {
		if n >= k {
			break
		}
		superset := false
		for _, kept := range order[:n] {
			if sub := recs[kept].ids; len(sub) < len(recs[c].ids) && containsSorted(recs[c].ids, sub) {
				superset = true
				break
			}
		}
		if !superset {
			order[n] = c
			n++
		}
	}
	return order[:n]
}

// containsSorted reports whether every id of sub occurs in super; both are
// ascending, so one merge pass decides.
func containsSorted(super, sub []graph.NodeID) bool {
	i := 0
	for _, v := range sub {
		for i < len(super) && super[i] < v {
			i++
		}
		if i == len(super) || super[i] != v {
			return false
		}
		i++
	}
	return true
}

// Search runs the full two-stage algorithm: CPU-Par when p.Threads > 1, the
// sequential baseline when p.Threads == 1. It is the one-shot entry point;
// repeated callers should hold a SearchState to reuse buffers and workers.
func Search(in Input, p Params) (*Result, error) {
	ss := NewSearchState()
	defer ss.Close()
	return ss.Search(in, p)
}
