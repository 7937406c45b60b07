package wikisearch

import (
	"sort"
	"sync"
	"sync/atomic"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

// This file holds the engine's epoch machinery for live graph mutations.
//
// Everything a search reads — graph, weights, inverted index (plus its
// delta overlay), distance statistics, activation-level caches — lives in
// one immutable snapshot. The engine holds an atomic pointer to the current
// epoch (snapshot + pin count); each search pins the epoch for its lifetime
// with one atomic increment, so readers never take a lock and never observe
// a torn mix of two epochs. Publishing a new snapshot swaps the pointer and
// retires the old epoch; it is fully drained once its last pinned search
// unpins, at which point the compactor may drop it.

// snapshot is the immutable per-epoch view a search runs against. The level
// caches are lazily filled but append-only per α (see levelEntry); all other
// fields are frozen at publication.
type snapshot struct {
	g       *Graph
	ix      *text.Index
	ixo     *text.Overlay // merged postings for delta-affected terms; nil when none
	weights []float64
	avgDist float64
	stddev  float64

	mu         sync.Mutex
	levelCache map[float64]*levelEntry // α → per-node activation levels
	zeroLv     []uint8                 // all-zero levels for the activation ablation
}

func newSnapshot(g *Graph, ix *text.Index, ixo *text.Overlay, w []float64, avgDist, stddev float64) *snapshot {
	return &snapshot{
		g: g, ix: ix, ixo: ixo, weights: w,
		avgDist: avgDist, stddev: stddev,
		levelCache: map[float64]*levelEntry{},
	}
}

// lookupTerm resolves a normalized term through the delta overlay first,
// then the base index. Allocation-free: overlay postings are pre-merged at
// publication.
func (sn *snapshot) lookupTerm(term string) []graph.NodeID {
	if sn.ixo != nil {
		if p, ok := sn.ixo.Postings(term); ok {
			return p
		}
	}
	return sn.ix.LookupTerm(term)
}

// lookup resolves a raw keyword (possibly multi-term) to the union of its
// terms' postings, overlay-aware. Mirrors text.Index.Lookup.
func (sn *snapshot) lookup(raw string) []graph.NodeID {
	terms := text.Normalize(raw)
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return sn.lookupTerm(terms[0])
	}
	set := map[graph.NodeID]struct{}{}
	for _, t := range terms {
		for _, v := range sn.lookupTerm(t) {
			set[v] = struct{}{}
		}
	}
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// vocabSize returns the snapshot's keyword vocabulary size, adjusted for
// terms the delta introduced or emptied.
func (sn *snapshot) vocabSize() int {
	n := sn.ix.NumTerms()
	if sn.ixo != nil {
		n += sn.ixo.TermsDelta()
	}
	return n
}

// activationLevels returns (computing and caching on first use) the
// snapshot's per-node minimum activation levels for α. Concurrent first
// requests for the same α coordinate on one levelEntry, so the vector is
// computed exactly once per epoch; eviction replaces the map but never an
// entry a caller already holds.
func (sn *snapshot) activationLevels(alpha float64, threads int, computes *atomic.Int64) []uint8 {
	sn.mu.Lock()
	ent, ok := sn.levelCache[alpha]
	if !ok {
		if len(sn.levelCache) >= 16 { // bound the cache; α values are few in practice
			sn.levelCache = map[float64]*levelEntry{}
		}
		ent = &levelEntry{}
		sn.levelCache[alpha] = ent
	}
	sn.mu.Unlock()
	ent.once.Do(func() {
		pool := parallel.NewPool(threads)
		defer pool.Close()
		ent.lv = weight.Levels(sn.weights, sn.avgDist, alpha, pool)
		ent.done.Store(true)
		computes.Add(1)
	})
	return ent.lv
}

// carryLevels seeds the unpublished snapshot sn with every α level vector
// prev had already computed, so the first search after a publish computes
// none. Each vector is a fresh copy — searches pinned to prev still read
// the old one. Levels are a per-node function of (weight, A, α), and A is
// carried across publications: unless full, sn's weights differ from
// prev's only at the changed nodes (which include every node appended past
// prev), and only those are recomputed; full (the weight bounds moved)
// recomputes every vector.
func (sn *snapshot) carryLevels(prev *snapshot, changed []graph.NodeID, full bool, pool *parallel.Pool) {
	type carried struct {
		alpha float64
		lv    []uint8
	}
	var todo []carried
	prev.mu.Lock()
	for alpha, ent := range prev.levelCache {
		if ent.done.Load() {
			todo = append(todo, carried{alpha, ent.lv})
		}
	}
	prev.mu.Unlock()
	for _, c := range todo {
		var lv []uint8
		if full {
			lv = weight.Levels(sn.weights, sn.avgDist, c.alpha, pool)
		} else {
			lv = make([]uint8, len(sn.weights))
			copy(lv, c.lv)
			for _, v := range changed {
				lv[v] = uint8(weight.Level(sn.weights[v], sn.avgDist, c.alpha))
			}
		}
		ent := &levelEntry{}
		ent.once.Do(func() {
			ent.lv = lv
			ent.done.Store(true)
		})
		sn.levelCache[c.alpha] = ent
	}
}

// zeroLevels returns (caching) an all-zero activation vector for the
// DisableActivation ablation.
func (sn *snapshot) zeroLevels() []uint8 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.zeroLv == nil {
		sn.zeroLv = make([]uint8, sn.g.NumNodes())
	}
	return sn.zeroLv
}

// epoch binds one published snapshot to its reader pin count. Pin/unpin are
// single atomic adds — no locks on the search hot path — and the epoch is
// fully drained (safe to drop) once it is retired and the count hits zero.
type epoch struct {
	id   uint64
	snap *snapshot

	pins      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// pin adds a reader to an epoch already protected from draining (the caller
// holds a pin, or the epoch is still current and the caller just verified
// the pointer — see Engine.pinEpoch).
func (ep *epoch) pin() { ep.pins.Add(1) }

// unpin releases a reader; the last reader of a retired epoch marks it
// drained. Allocation-free.
func (ep *epoch) unpin() {
	if ep.pins.Add(-1) == 0 && ep.retired.Load() {
		ep.drainOnce.Do(func() { close(ep.drained) })
	}
}

// retire marks the epoch replaced. With no readers left it drains
// immediately; otherwise the last unpin drains it. The atomic orderings are
// sequentially consistent, so either retire observes pins==0 or the racing
// unpin observes retired==true (or both — drainOnce makes that benign).
func (ep *epoch) retire() {
	ep.retired.Store(true)
	if ep.pins.Load() == 0 {
		ep.drainOnce.Do(func() { close(ep.drained) })
	}
}

// pinEpoch pins and returns the current epoch. The verify-after-pin loop
// closes the race with a concurrent publish: if the pointer moved while we
// were pinning, the pin may have landed on a retiring epoch — release and
// retry. Lock-free and allocation-free.
func (e *Engine) pinEpoch() *epoch {
	for {
		ep := e.epoch.Load()
		ep.pin()
		if e.epoch.Load() == ep {
			return ep
		}
		ep.unpin()
	}
}

// snap returns the current snapshot without pinning — for accessors that
// read a single consistent view but do not hold it across a traversal.
func (e *Engine) snap() *snapshot { return e.epoch.Load().snap }

// installEpoch publishes sn as the next epoch and retires the previous one
// (if any). Returns the new epoch id. Serialized by pubMu so concurrent
// publishers cannot interleave swap and retire.
func (e *Engine) installEpoch(sn *snapshot) uint64 {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	id := e.epochSeq.Add(1)
	ne := &epoch{id: id, snap: sn, drained: make(chan struct{})}
	old := e.epoch.Swap(ne)
	if old != nil {
		e.mu.Lock()
		e.oldEpochs = append(e.oldEpochs, old)
		e.mu.Unlock()
		old.retire()
	}
	e.sweepEpochs()
	return id
}

// sweepEpochs drops fully drained replaced epochs from the bookkeeping list
// and counts them. Cheap; called on publish and by stats readers.
func (e *Engine) sweepEpochs() {
	e.mu.Lock()
	kept := e.oldEpochs[:0]
	for _, ep := range e.oldEpochs {
		select {
		case <-ep.drained:
			e.epochsRetired.Add(1)
		default:
			kept = append(kept, ep)
		}
	}
	for i := len(kept); i < len(e.oldEpochs); i++ {
		e.oldEpochs[i] = nil
	}
	e.oldEpochs = kept
	e.mu.Unlock()
}

// waitEpochsDrained blocks until every replaced epoch published before the
// call has drained — the compactor uses it to retire pre-compaction state
// only after the last pinned search on it finishes.
func (e *Engine) waitEpochsDrained() {
	e.mu.Lock()
	old := make([]*epoch, len(e.oldEpochs))
	copy(old, e.oldEpochs)
	e.mu.Unlock()
	for _, ep := range old {
		<-ep.drained
	}
	e.sweepEpochs()
}

// Epoch returns the id of the current search epoch. It starts at 1 and
// increments on every Mutator publish or compaction.
func (e *Engine) Epoch() uint64 { return e.epoch.Load().id }

// EpochStats describes the engine's epoch and delta state; served by
// /v1/stats and the metrics gauges.
type EpochStats struct {
	// Epoch is the current epoch id.
	Epoch uint64
	// Pinned is the number of searches currently pinning the current epoch.
	Pinned int64
	// OldLive is the number of replaced epochs still pinned by in-flight
	// searches.
	OldLive int
	// Retired counts replaced epochs that fully drained.
	Retired int64
	// DeltaNodes / DeltaPatched / DeltaEdges describe the current
	// snapshot's unmerged graph overlay (zero after compaction).
	DeltaNodes   int
	DeltaPatched int
	DeltaEdges   int
	// DeltaTerms is the number of index terms covered by the keyword
	// overlay (zero after compaction).
	DeltaTerms int
}

// EpochStats snapshots the epoch machinery state.
func (e *Engine) EpochStats() EpochStats {
	e.sweepEpochs()
	ep := e.epoch.Load()
	st := EpochStats{
		Epoch:   ep.id,
		Pinned:  ep.pins.Load(),
		Retired: e.epochsRetired.Load(),
	}
	e.mu.Lock()
	st.OldLive = len(e.oldEpochs)
	e.mu.Unlock()
	st.DeltaNodes, st.DeltaPatched, st.DeltaEdges = ep.snap.g.DeltaStats()
	if ep.snap.ixo != nil {
		st.DeltaTerms = ep.snap.ixo.NumAffected()
	}
	return st
}
