package wikisearch

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

// MutatorOptions tunes live graph mutation.
type MutatorOptions struct {
	// CompactAfterOps is the delta size (accumulated mutation operations
	// since the last compaction) at which a Publish wakes the background
	// compactor (default 4096; < 0 disables automatic compaction — call
	// Compact explicitly).
	CompactAfterOps int
	// Threads bounds mutator parallelism (the raw weights at open, level
	// recomputation when the weight bounds move, and the compacted index
	// build). <= 0 selects GOMAXPROCS.
	Threads int
}

func (o MutatorOptions) defaults() MutatorOptions {
	if o.CompactAfterOps == 0 {
		o.CompactAfterOps = 4096
	}
	return o
}

// PublishInfo describes one epoch publication to the publish observer and
// the Publish/Compact callers.
type PublishInfo struct {
	// Epoch is the id of the newly installed epoch.
	Epoch uint64
	// Ops is the delta size (mutation operations since the last compaction)
	// carried by the published snapshot; 0 after a compaction.
	Ops int
	// Compacted reports whether this publication installed a freshly merged
	// flat snapshot (no overlay) rather than a delta view.
	Compacted bool
	// DeltaNodes / DeltaPatched / DeltaEdges / DeltaTerms describe the
	// published snapshot's overlay (all zero when Compacted).
	DeltaNodes   int
	DeltaPatched int
	DeltaEdges   int
	DeltaTerms   int
	// Duration is how long building and installing the snapshot took.
	Duration time.Duration
}

// PublishObserver receives every epoch publication (Mutator.Publish and
// compactions). It must be safe for concurrent use; the serving layer uses
// it to invalidate its result cache and update gauges.
type PublishObserver func(PublishInfo)

// SetPublishObserver installs (or, with nil, removes) the observer invoked
// after every epoch publication. Safe to call concurrently with publishes.
func (e *Engine) SetPublishObserver(obs PublishObserver) {
	if obs == nil {
		e.publishObs.Store(nil)
		return
	}
	e.publishObs.Store(&obs)
}

func (e *Engine) notifyPublish(info PublishInfo) {
	if p := e.publishObs.Load(); p != nil {
		(*p)(info)
	}
}

// MutationStats reports a mutator's cumulative activity.
type MutationStats struct {
	// Ops counts mutation operations applied since the last compaction.
	Ops int
	// PendingOps counts operations not yet visible to searches (applied
	// after the last Publish).
	PendingOps int
	// Publishes and Compactions count epoch publications by kind.
	Publishes   int64
	Compactions int64
}

// Mutator is the single-writer handle for live graph mutations. Mutations
// accumulate invisibly until Publish installs them as a new epoch snapshot
// — a copy-on-write overlay over the base CSR plus pre-merged posting lists
// for the affected keywords — so concurrent searches never observe a torn
// graph and pay nothing on the hot path while the delta is empty. A
// background compactor (or an explicit Compact call) merges a ripened delta
// into a fresh flat snapshot and retires the overlay epochs once their last
// pinned search drains.
//
// At most one Mutator may be open per engine (all methods are serialized by
// an internal lock; readers go through published epoch snapshots only).
type Mutator struct {
	eng *Engine
	opt MutatorOptions

	// pool runs the raw weights at open, the full level recomputation of a
	// publish that moved the weight bounds, and the index build of every
	// compaction. It lives as long as the mutator (closed by Close) and is
	// used only under mu (or before the mutator is shared), so its phases
	// never overlap.
	pool *parallel.Pool

	// mu serializes mutations, Publish and Compact (the compactor runs
	// concurrently with the caller's mutations).
	mu sync.Mutex

	// db / tb accumulate the graph and keyword deltas since the last
	// compaction; ix is the base index both are rooted at.
	db *graph.DeltaBuilder
	tb *text.OverlayBuilder
	ix *text.Index

	// oplog is the logical redo log of the delta (everything since the
	// last compaction), rooted at a base of baseNodes/baseEdges; SaveDelta
	// persists it and Replay reapplies a persisted log.
	oplog                []storage.DeltaOp
	baseNodes, baseEdges int

	// reweights are operator weight overrides (Reweight), reapplied after
	// every weight recomputation for the mutator's lifetime; rwDirty marks
	// overrides not yet published.
	reweights map[graph.NodeID]float64
	rwDirty   bool

	// raw holds the Eq. 2 raw weight of every node of the mutated graph:
	// computed once at open, grown by AddNode, and recomputed at publish
	// only at dirty nodes — those added, reweighted or targeted by an added
	// or removed edge since the last publication. mn/mx are the raw bounds
	// the last publication normalised with, and last is the snapshot it
	// installed: while last is still current, the next publication patches
	// its weights instead of normalising every node.
	raw    []float64
	dirty  []graph.NodeID
	mn, mx float64
	last   *snapshot

	// avgDist/stddev are carried across publications: the distance sample
	// is statistical, and resampling would make post-mutation answers
	// incomparable to the pre-mutation engine.
	avgDist, stddev float64

	publishedOps int // delta ops visible to searches (last Publish)
	closed       bool

	wake chan struct{} // signals the compactor that the delta ripened
	stop chan struct{}
	done chan struct{}

	publishes   int64
	compactions int64
}

// NewMutator opens the engine's single mutation handle. If the current
// snapshot still carries an unmerged delta (a previous mutator closed
// without compacting), it is compacted first so the new delta roots at a
// flat base.
func (e *Engine) NewMutator(o MutatorOptions) (*Mutator, error) {
	e.mu.Lock()
	if e.mut != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("wikisearch: a mutator is already open")
	}
	// Reserve the slot before the (possibly slow) inline compaction below.
	m := &Mutator{
		eng:       e,
		opt:       o.defaults(),
		pool:      parallel.NewPool(o.Threads),
		reweights: map[graph.NodeID]float64{},
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	e.mut = m
	e.mu.Unlock()

	sn := e.snap()
	m.avgDist, m.stddev = sn.avgDist, sn.stddev
	g, ix := sn.g, sn.ix
	if g.HasOverlay() {
		g = g.Materialize()
		ix = text.BuildIndex(g, m.pool)
		e.installEpoch(newSnapshot(g, ix, nil, sn.weights, sn.avgDist, sn.stddev))
	}
	m.db = graph.NewDeltaBuilder(g)
	m.tb = text.NewOverlayBuilder(ix)
	m.ix = ix
	m.raw = weight.Raw(g, m.pool)
	m.baseNodes, m.baseEdges = g.NumNodes(), g.NumEdges()
	go m.compactLoop() // joined via m.done in Close
	return m, nil
}

// compactLoop is the background compactor: it sleeps until a Publish
// reports the delta ripened (opt.CompactAfterOps), merges it into a flat
// snapshot, and waits for the replaced overlay epochs to drain.
func (m *Mutator) compactLoop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
			m.Compact() //nolint:errcheck // benign: a concurrent Close wins the race
		}
	}
}

// Close stops the background compactor and releases the engine's mutation
// slot. Mutations applied but not published are discarded; the published
// state stays live (Save folds any remaining delta into the dump).
func (m *Mutator) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.last = nil // the engine's current snapshot outlives the handle
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	m.pool.Close()
	m.eng.mu.Lock()
	if m.eng.mut == m {
		m.eng.mut = nil
	}
	m.eng.mu.Unlock()
	return nil
}

func (m *Mutator) checkOpen() error {
	if m.closed {
		return fmt.Errorf("wikisearch: mutator is closed")
	}
	return nil
}

// AddNode appends a node with the given label and description and returns
// its id (dense: the first added node gets the base graph's size). The node
// becomes searchable at the next Publish.
func (m *Mutator) AddNode(label, desc string) (NodeID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return 0, err
	}
	v := m.db.AddNode(label, desc)
	m.tb.NodeAdded(v, label, desc)
	m.raw = append(m.raw, 0)
	m.dirty = append(m.dirty, v)
	m.oplog = append(m.oplog, storage.DeltaOp{Kind: storage.DeltaAddNode, Label: label, Desc: desc})
	return v, nil
}

// AddEdge adds a from→to edge with the given relation label (interned on
// first use). Parallel identical edges are allowed, as in the builder.
func (m *Mutator) AddEdge(from, to NodeID, rel string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.db.AddEdge(from, to, m.db.Rel(rel)); err != nil {
		return err
	}
	m.dirty = append(m.dirty, to)
	m.oplog = append(m.oplog, storage.DeltaOp{Kind: storage.DeltaAddEdge, From: from, To: to, Rel: rel})
	return nil
}

// RemoveEdge removes one instance of the from→to edge with the given
// relation label; it errors if no such edge exists.
func (m *Mutator) RemoveEdge(from, to NodeID, rel string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	r, ok := m.db.RelByName(rel)
	if !ok {
		return fmt.Errorf("wikisearch: unknown relation %q", rel)
	}
	if err := m.db.RemoveEdge(from, to, r); err != nil {
		return err
	}
	m.dirty = append(m.dirty, to)
	m.oplog = append(m.oplog, storage.DeltaOp{Kind: storage.DeltaRemoveEdge, From: from, To: to, Rel: rel})
	return nil
}

// SetKeywords replaces node v's label and description; the inverted index
// delta follows the text diff.
func (m *Mutator) SetKeywords(v NodeID, label, desc string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	oldLabel, oldDesc := m.db.Label(v), m.db.Description(v)
	if err := m.db.SetText(v, label, desc); err != nil {
		return err
	}
	m.tb.NodeRetext(v, oldLabel, oldDesc, label, desc)
	m.oplog = append(m.oplog, storage.DeltaOp{Kind: storage.DeltaSetText, V: v, Label: label, Desc: desc})
	return nil
}

// Reweight overrides node v's normalized degree-of-summary weight (an
// operator knob: demote a hub the automatic weight underestimates). The
// override persists for the mutator's lifetime, reapplied after every
// recomputation; it takes effect at the next Publish.
func (m *Mutator) Reweight(v NodeID, w float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if int(v) < 0 || int(v) >= m.db.NumNodes() {
		return fmt.Errorf("wikisearch: reweight of unknown node %d", v)
	}
	if !(w >= 0 && w <= 1) { // NaN-failing, as in Query.Validate
		return fmt.Errorf("wikisearch: weight %v outside [0,1]", w)
	}
	m.reweights[v] = w
	m.rwDirty = true
	m.dirty = append(m.dirty, v)
	m.oplog = append(m.oplog, storage.DeltaOp{Kind: storage.DeltaReweight, V: v, W: w})
	return nil
}

// Stats reports the mutator's cumulative activity.
func (m *Mutator) Stats() MutationStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MutationStats{
		Ops:         len(m.oplog),
		PendingOps:  len(m.oplog) - m.publishedOps,
		Publishes:   m.publishes,
		Compactions: m.compactions,
	}
}

// Publish atomically installs every mutation applied so far as a new epoch
// snapshot: searches admitted after Publish returns see the new graph,
// in-flight searches finish on the epoch they pinned, and answers are never
// a torn mix. Publishing an unchanged delta is a no-op. It pays for the
// delta, not for the graph: raw weights are recomputed only at the nodes
// whose in-edges changed, and while the global min and max raw weight hold,
// only those nodes' normalized weights and activation levels are patched
// into copies of the previous snapshot's (a moved bound renormalizes every
// node); the keyword overlay re-merges only the terms touched since the
// last publish. The distance statistics are carried over.
func (m *Mutator) Publish() (PublishInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkOpen(); err != nil {
		return PublishInfo{}, err
	}
	// Every mutation (including reweights) journals to the oplog, so an
	// unchanged length means there is nothing new to publish.
	if len(m.oplog) == m.publishedOps {
		cur := m.eng.EpochStats()
		return PublishInfo{Epoch: cur.Epoch, Ops: m.publishedOps}, nil
	}
	start := time.Now()
	g := m.db.Overlay()
	var ixo *text.Overlay
	if !m.tb.Empty() {
		ixo = m.tb.Build()
	}
	sn := m.nextSnapshot(g, m.ix, ixo)
	info := PublishInfo{Ops: len(m.oplog), Duration: 0}
	info.DeltaNodes, info.DeltaPatched, info.DeltaEdges = g.DeltaStats()
	if ixo != nil {
		info.DeltaTerms = ixo.NumAffected()
	}
	info.Epoch = m.eng.installEpoch(sn)
	info.Duration = time.Since(start)
	m.publishedOps = len(m.oplog)
	m.rwDirty = false
	m.publishes++
	m.eng.notifyPublish(info)
	if m.opt.CompactAfterOps > 0 && len(m.oplog) >= m.opt.CompactAfterOps {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	return info, nil
}

// Compact publishes any pending mutations folded into a fresh flat snapshot
// — base CSR rebuilt, index rebuilt, no overlays — resets the delta, and
// blocks until every replaced epoch drains (the last search pinned to a
// pre-compaction snapshot finishes). Safe to call concurrently with
// searches; the background compactor calls it automatically.
func (m *Mutator) Compact() (PublishInfo, error) {
	m.mu.Lock()
	if err := m.checkOpen(); err != nil {
		m.mu.Unlock()
		return PublishInfo{}, err
	}
	if m.db.Empty() && !m.rwDirty && !m.eng.snap().g.HasOverlay() {
		cur := m.eng.EpochStats()
		m.mu.Unlock()
		return PublishInfo{Epoch: cur.Epoch, Compacted: true}, nil
	}
	start := time.Now()
	g := m.db.Overlay().Materialize()
	ix := text.BuildIndex(g, m.pool)
	info := PublishInfo{Compacted: true}
	info.Epoch = m.eng.installEpoch(m.nextSnapshot(g, ix, nil))
	// Root the next delta at the compacted base.
	m.db = graph.NewDeltaBuilder(g)
	m.tb = text.NewOverlayBuilder(ix)
	m.ix = ix
	m.oplog = nil
	m.baseNodes, m.baseEdges = g.NumNodes(), g.NumEdges()
	m.publishedOps = 0
	m.rwDirty = false
	m.publishes++
	m.compactions++
	info.Duration = time.Since(start)
	m.mu.Unlock()

	// Outside the writer lock: draining depends only on searches unpinning.
	m.eng.waitEpochsDrained()
	m.eng.notifyPublish(info)
	return info, nil
}

// DeltaLog is a persisted mutation batch: the logical redo log of a
// mutator's delta, rooted at a named base snapshot. See Mutator.SaveDelta.
type DeltaLog = storage.DeltaLog

// DeltaOp is one recorded mutation operation of a DeltaLog.
type DeltaOp = storage.DeltaOp

// LoadDeltaFile reads a delta segment written by Mutator.SaveDelta.
func LoadDeltaFile(path string) (*DeltaLog, error) { return storage.LoadDeltaFile(path) }

// SaveDelta persists the mutator's delta — every operation applied since
// the last compaction, published or not — as a CRC-guarded segment written
// atomically and durably. Replaying it onto the same compacted base (after
// a crash or restart: LoadEngine + NewMutator + Replay) reproduces the
// mutated graph exactly; Compact empties the log.
func (m *Mutator) SaveDelta(path string) error {
	m.mu.Lock()
	l := &DeltaLog{
		Name:      m.eng.name,
		BaseNodes: m.baseNodes,
		BaseEdges: m.baseEdges,
		Ops:       append([]DeltaOp(nil), m.oplog...),
	}
	m.mu.Unlock()
	return storage.SaveDeltaFile(path, l)
}

// Replay applies a persisted delta log. The mutator's base must match the
// log's (same node and edge count): replay onto a different snapshot would
// silently corrupt ids. Replayed operations accumulate like fresh ones —
// they are journaled again and become visible at the next Publish.
func (m *Mutator) Replay(l *DeltaLog) error {
	m.mu.Lock()
	bn, be := m.baseNodes, m.baseEdges
	m.mu.Unlock()
	if l.BaseNodes != bn || l.BaseEdges != be {
		return fmt.Errorf("wikisearch: delta log base (%d nodes, %d edges) does not match the mutator base (%d, %d)",
			l.BaseNodes, l.BaseEdges, bn, be)
	}
	for i := range l.Ops {
		op := &l.Ops[i]
		var err error
		switch op.Kind {
		case storage.DeltaAddNode:
			_, err = m.AddNode(op.Label, op.Desc)
		case storage.DeltaAddEdge:
			err = m.AddEdge(op.From, op.To, op.Rel)
		case storage.DeltaRemoveEdge:
			err = m.RemoveEdge(op.From, op.To, op.Rel)
		case storage.DeltaSetText:
			err = m.SetKeywords(op.V, op.Label, op.Desc)
		case storage.DeltaReweight:
			err = m.Reweight(op.V, op.W)
		default:
			err = fmt.Errorf("wikisearch: unknown delta op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("wikisearch: replay op %d (%v): %w", i, op.Kind, err)
		}
	}
	return nil
}

// nextSnapshot builds the snapshot the next publication installs over g:
// raw weights recomputed at the dirty nodes; normalized weights patched
// into a copy of the previous snapshot's when the raw bounds held and that
// snapshot is still the one this mutator installed, else normalized in
// full; operator overrides reapplied; and the previous snapshot's computed
// activation levels carried over. Every weight is bit-identical to
// weight.Compute(g) plus overrides. Called with m.mu held.
func (m *Mutator) nextSnapshot(g *Graph, ix *text.Index, ixo *text.Overlay) *snapshot {
	prev := m.eng.snap()
	slices.Sort(m.dirty)
	m.dirty = slices.Compact(m.dirty)
	weight.RawNodes(g, m.raw, m.dirty)
	mn, mx := weight.Bounds(m.raw)
	full := prev != m.last || mn != m.mn || mx != m.mx
	w := make([]float64, len(m.raw))
	if full {
		for v, x := range m.raw {
			w[v] = weight.Scale(x, mn, mx)
		}
	} else {
		copy(w, prev.weights)
		for _, v := range m.dirty {
			w[v] = weight.Scale(m.raw[v], mn, mx)
		}
	}
	for v, wt := range m.reweights {
		if int(v) < len(w) {
			w[v] = wt
		}
	}
	sn := newSnapshot(g, ix, ixo, w, m.avgDist, m.stddev)
	sn.carryLevels(prev, m.dirty, full, m.pool)
	m.dirty = m.dirty[:0]
	m.mn, m.mx, m.last = mn, mx, sn
	return sn
}
