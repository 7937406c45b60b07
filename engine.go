package wikisearch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"wikisearch/internal/core"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
	"wikisearch/internal/trace"
	"wikisearch/internal/weight"
)

// Graph is the knowledge graph the engine searches: a bi-directed,
// node- and edge-labeled graph in CSR form. Build one with NewBuilder or
// generate one with GenerateDataset.
type Graph = graph.Graph

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// NodeID identifies a graph node.
type NodeID = graph.NodeID

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// EngineOptions configures engine preparation.
type EngineOptions struct {
	// Threads bounds preparation parallelism: weight computation, distance
	// sampling and the inverted-index build. <= 0 selects GOMAXPROCS.
	Threads int
	// DistanceSamplePairs is the number of node pairs sampled to estimate
	// the average shortest distance A (the paper samples 10,000; default
	// here 2,000). Ignored when AvgDistance is set.
	DistanceSamplePairs int
	// AvgDistance overrides sampling with a known A (> 0).
	AvgDistance float64
	// Seed drives distance sampling; 0 means 1.
	Seed int64
}

func (o EngineOptions) defaults() EngineOptions {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.DistanceSamplePairs <= 0 {
		o.DistanceSamplePairs = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Engine is a prepared search engine over one knowledge graph: inverted
// keyword index, degree-of-summary weights, and the sampled average
// distance that anchors the activation-level mapping. An Engine is safe
// for concurrent Search calls, and — through NewMutator — for live graph
// mutations concurrent with searches: every search pins one immutable
// epoch snapshot for its lifetime (see epoch.go).
type Engine struct {
	name string

	// epoch points at the current published snapshot (graph, weights,
	// index + delta overlay, level caches). Searches pin it lock-free;
	// Mutator.Publish and the compactor install successors.
	epoch         atomic.Pointer[epoch]
	epochSeq      atomic.Uint64 // last published epoch id
	epochsRetired atomic.Int64  // replaced epochs fully drained
	// oldEpochs (guarded by mu) tracks replaced epochs that may still be
	// pinned by in-flight searches.
	oldEpochs []*epoch
	// pubMu serializes epoch publication (mutator publishes, compaction).
	pubMu sync.Mutex

	// mut (guarded by mu) is the active Mutator; at most one may exist.
	mut *Mutator
	// publishObs, when set, is invoked after every epoch publication; the
	// serving layer uses it to purge its result cache and update gauges.
	publishObs atomic.Pointer[PublishObserver]

	// mu guards the cross-cutting cold-path engine state: oldEpochs and mut.
	mu sync.Mutex

	// levelComputes counts level-vector computations (observability and
	// the singleflight regression test).
	levelComputes atomic.Int64

	// states (guarded by statesMu) is a LIFO free list of idle per-query
	// search states (matrix, bitsets, frontier buffers, worker pool) shared
	// by CPU-Par/Sequential searches, so steady-state serving does not
	// re-allocate the O(n·q) kernel arrays per query. It keeps at
	// most GOMAXPROCS states — retained memory follows the cores, not the
	// peak concurrency a burst once reached — and a state released beyond
	// that, or after Close, is closed at once. stateNews/stateReuses expose
	// the list's effectiveness.
	statesMu     sync.Mutex
	states       []*core.SearchState
	statesClosed bool
	stateNews    atomic.Int64
	stateReuses  atomic.Int64

	// observer, when set, is invoked after every Search call with the
	// outcome; the serving layer uses it to feed latency metrics.
	observer atomic.Pointer[SearchObserver]

	// tracer retains per-query trace trees assembled from the kernel's
	// span rings; traceOff is inverted so the zero value means tracing is
	// on (it is cheap enough to be always-on; see SetTracing).
	tracer   *TraceCollector
	traceOff atomic.Bool

	// dump retains the loaded dump when the engine came from LoadEngine:
	// the graph/weight/index arrays alias the mapping it owns, which Close
	// releases.
	dump *storage.Dump
}

// DumpFormat names the on-disk format for Engine.SaveFormat.
type DumpFormat int

// FormatV3 is the mmap-able section format: page-aligned arrays loaded as
// zero-copy views for near-instant startup. It is the only format.
const FormatV3 DumpFormat = 3

// LoadInfo describes how a loaded engine's dump got into memory.
type LoadInfo struct {
	// Format is the on-disk version read (always 3); 0 for engines built
	// in memory by NewEngine.
	Format int
	// Mode is "mmap" (zero-copy) or "read" (the image read into memory
	// where mmap is unavailable); empty for in-memory engines.
	Mode string
	// MappedBytes is the live mapping size (0 unless Mode is "mmap").
	MappedBytes int64
	// FileBytes is the dump file size.
	FileBytes int64
}

// levelEntry is one per-α cache slot. The sync.Once guarantees the level
// vector is computed exactly once per α even under concurrent first
// requests, and callers hold the entry pointer, so a concurrent cache
// eviction can never drop a vector out from under an in-flight search.
// done is set once lv is final, so a publish can carry lv to the next
// snapshot without entering (or waiting on) the Once.
type levelEntry struct {
	once sync.Once
	done atomic.Bool
	lv   []uint8
}

// SearchObserver receives the outcome of every Search call: the
// query, the result (nil on error) and the error (nil on success). It must
// be safe for concurrent use.
type SearchObserver func(q Query, res *Result, err error)

// SetSearchObserver installs (or, with nil, removes) the observer invoked
// after every search. Safe to call concurrently with searches.
func (e *Engine) SetSearchObserver(obs SearchObserver) {
	if obs == nil {
		e.observer.Store(nil)
		return
	}
	e.observer.Store(&obs)
}

// DisableBatching does nothing. Every search runs on its own pooled search
// state; the method remains only for callers written when the engine could
// coalesce concurrent searches.
func (e *Engine) DisableBatching() {}

// observe reports a search outcome to the installed observer, if any.
func (e *Engine) observe(q Query, res *Result, err error) {
	if p := e.observer.Load(); p != nil {
		(*p)(q, res, err)
	}
}

// NewEngine prepares an engine over g: builds the inverted index, computes
// normalized Eq. 2 weights, and samples the average shortest distance.
func NewEngine(g *Graph, o EngineOptions) (*Engine, error) {
	o = o.defaults()
	if g == nil {
		return nil, fmt.Errorf("wikisearch: nil graph")
	}
	pool := parallel.NewPool(o.Threads)
	defer pool.Close()
	w := weight.Compute(g, pool)
	return newEngineFrom("", g, w, o, pool)
}

// LoadEngine reads a dump produced by Engine.Save (or cmd/wikigen) and
// prepares an engine over it. The dump carries the inverted index and the
// sampled distance statistics, so loading recomputes neither; a positive
// o.AvgDistance overrides the stored A. A dump without an index, or without
// a positive A and no override, is rejected.
func LoadEngine(path string, o EngineOptions) (*Engine, error) {
	d, err := storage.LoadDumpFile(path)
	if err != nil {
		return nil, err
	}
	avgDist, stddev := d.AvgDist, d.Deviation
	if o.AvgDistance > 0 {
		avgDist, stddev = o.AvgDistance, 0
	}
	switch {
	case d.Index == nil:
		err = fmt.Errorf("wikisearch: %s has no keyword index", path)
	case !(avgDist > 0):
		err = fmt.Errorf("wikisearch: %s has no positive average distance; set EngineOptions.AvgDistance", path)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	e := &Engine{
		name:   d.Name,
		tracer: trace.NewCollector(),
		dump:   d,
		states: newStateList(),
	}
	e.installEpoch(newSnapshot(d.Graph, d.Index, nil, d.Weights, avgDist, stddev))
	return e, nil
}

func newEngineFrom(name string, g *Graph, w []float64, o EngineOptions, pool *parallel.Pool) (*Engine, error) {
	e := &Engine{
		name:   name,
		tracer: trace.NewCollector(),
		states: newStateList(),
	}
	var avgDist, stddev float64
	if o.AvgDistance > 0 {
		avgDist = o.AvgDistance
	} else {
		s := graph.SampleAverageDistance(g, o.DistanceSamplePairs, rand.New(rand.NewSource(o.Seed)), pool)
		avgDist, stddev = s.Mean, s.Deviation
		if avgDist <= 0 {
			avgDist = 1 // degenerate graphs: keep the mapping sane
		}
	}
	e.installEpoch(newSnapshot(g, text.BuildIndex(g, pool), nil, w, avgDist, stddev))
	return e, nil
}

// Save writes the engine's dump to path in the mmap-able v3 layout —
// graph, weights, distance statistics and the inverted index — so
// LoadEngine starts without recomputation and, on platforms with mmap,
// without even reading the arrays up front. An unmerged mutation delta is
// folded in first: the dump always carries a flat CSR graph and an exact
// index, so a reloaded engine starts compacted.
func (e *Engine) Save(path string) error {
	sn := e.snap()
	g, ix := sn.g, sn.ix
	if g.HasOverlay() {
		g = g.Materialize()
		pool := parallel.NewPool(0)
		ix = text.BuildIndex(g, pool)
		pool.Close()
	}
	d := &storage.Dump{
		Name:      e.name,
		Graph:     g,
		Weights:   sn.weights,
		AvgDist:   sn.avgDist,
		Deviation: sn.stddev,
		Index:     ix,
	}
	return storage.SaveDumpFileV3(path, d)
}

// SaveFormat is Save for callers that name the format; FormatV3 is the
// only one.
func (e *Engine) SaveFormat(path string, format DumpFormat) error {
	if format != FormatV3 {
		return fmt.Errorf("wikisearch: unknown dump format %d", format)
	}
	return e.Save(path)
}

// LoadInfo reports how this engine's dump was loaded. Engines built in
// memory (NewEngine) return a zero LoadInfo.
func (e *Engine) LoadInfo() LoadInfo {
	if e.dump == nil {
		return LoadInfo{}
	}
	s := e.dump.Source
	return LoadInfo{Format: s.Format, Mode: s.Mode, MappedBytes: s.MappedBytes, FileBytes: s.Bytes}
}

// Close stops the mutator's compactor, closes the idle search states (and
// with them their worker goroutines) and releases the memory mapping backing
// a loaded engine. The caller must guarantee no search is in flight —
// after Close, the graph, weights and index views of a loaded engine are
// invalid; an in-memory engine keeps serving, without state reuse. Close is
// idempotent.
func (e *Engine) Close() error {
	// Stop the mutator's compactor first (no-op when none is active).
	e.mu.Lock()
	m := e.mut
	e.mu.Unlock()
	if m != nil {
		m.Close()
	}
	e.statesMu.Lock()
	idle := e.states
	e.states, e.statesClosed = nil, true
	e.statesMu.Unlock()
	for _, st := range idle {
		st.Close()
	}
	if e.dump == nil {
		return nil
	}
	return e.dump.Close()
}

// VerifyDumpFile fully verifies a dump file, including the per-section
// CRCs a load skips for instant startup. Use it after copying dumps between
// machines.
func VerifyDumpFile(path string) error { return storage.VerifyDumpFile(path) }

// SetName sets the dataset name recorded in dumps.
func (e *Engine) SetName(name string) { e.name = name }

// Name returns the dataset name ("wiki2018-sim", …).
func (e *Engine) Name() string { return e.name }

// Graph returns the current epoch's graph. During live mutation the view
// changes on publish; hold the result rather than re-reading it when a
// consistent view matters (or pin via Search, which does this per query).
func (e *Engine) Graph() *Graph { return e.snap().g }

// AvgDistance returns the sampled (or configured) average shortest
// distance A.
func (e *Engine) AvgDistance() float64 { return e.snap().avgDist }

// DistanceDeviation returns the sampling standard deviation (0 when A was
// configured explicitly).
func (e *Engine) DistanceDeviation() float64 { return e.snap().stddev }

// VocabSize returns the keyword vocabulary size after stopword filtering
// and stemming, adjusted for the live-mutation delta.
func (e *Engine) VocabSize() int { return e.snap().vocabSize() }

// KeywordFrequency returns the number of nodes containing the raw keyword
// (Table V's kwf), delta-aware.
func (e *Engine) KeywordFrequency(raw string) int { return len(e.snap().lookup(raw)) }

// Weight returns node v's normalized degree-of-summary weight.
func (e *Engine) Weight(v NodeID) float64 { return e.snap().weights[v] }

// Weights returns the current epoch's weight vector; the slice aliases
// snapshot state and must not be modified.
func (e *Engine) Weights() []float64 { return e.snap().weights }

// activationLevels returns the current snapshot's per-node minimum
// activation levels for α; see snapshot.activationLevels.
func (e *Engine) activationLevels(alpha float64, threads int) []uint8 {
	return e.snap().activationLevels(alpha, threads, &e.levelComputes)
}

// newStateList returns an empty free list with room for GOMAXPROCS states,
// so releasing a state never allocates.
func newStateList() []*core.SearchState {
	return make([]*core.SearchState, 0, runtime.GOMAXPROCS(0))
}

// acquireState takes the most recently released idle search state — the
// one whose buffers are likeliest still in cache — or creates one when none
// is idle.
func (e *Engine) acquireState() *core.SearchState {
	e.statesMu.Lock()
	if n := len(e.states); n > 0 {
		st := e.states[n-1]
		e.states[n-1] = nil
		e.states = e.states[:n-1]
		e.statesMu.Unlock()
		e.stateReuses.Add(1)
		return st
	}
	e.statesMu.Unlock()
	e.stateNews.Add(1)
	return core.NewSearchState()
}

// releaseState returns a search state to the free list for the next query,
// or closes it when GOMAXPROCS states are already idle or the engine is
// closed.
func (e *Engine) releaseState(st *core.SearchState) {
	e.statesMu.Lock()
	keep := !e.statesClosed && len(e.states) < runtime.GOMAXPROCS(0)
	if keep {
		e.states = append(e.states, st)
	}
	e.statesMu.Unlock()
	if !keep {
		st.Close()
	}
}

// SearchStateStats reports how many search states have been created versus
// reused — at steady state reuses dominate, meaning searches run on warm,
// allocation-free kernel buffers.
func (e *Engine) SearchStateStats() (created, reused int64) {
	return e.stateNews.Load(), e.stateReuses.Load()
}

// LevelComputations returns how many activation-level vectors have been
// computed (cache misses); the per-α cache makes repeats free.
func (e *Engine) LevelComputations() int64 { return e.levelComputes.Load() }

// ActivationDistribution buckets all nodes by minimum activation level for
// α — the data behind Fig. 3. The final bucket aggregates levels ≥
// buckets−1.
func (e *Engine) ActivationDistribution(alpha float64, buckets int) []int {
	return weight.Distribution(e.activationLevels(alpha, 0), buckets)
}
