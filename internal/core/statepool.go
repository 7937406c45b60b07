package core

import (
	"time"

	"wikisearch/internal/parallel"
	"wikisearch/internal/trace"
)

// SearchState owns every allocation of the two-stage search — the
// node-keyword matrix (whose zero cells double as the keyword containment
// record), the FIdentifier bitset, the centralAt bytes, frontier buffers,
// per-worker scratch, and a persistent worker pool. A state is reused
// across queries: after the first few searches warm
// its buffers to the graph's size, the bottom-up stage runs without
// allocating at all (the top-down stage still allocates the answers it
// returns). A SearchState is not safe for concurrent use; serve concurrent
// queries from a set of states (the engine keeps a free list bounded by
// GOMAXPROCS). A SearchState must not be copied: a copy aliases the owned
// search structures.
//
//wikisearch:nocopy
type SearchState struct {
	st   state
	pool *parallel.Pool

	// buf is the state's trace buffer: one event ring per pool worker,
	// recorded into during the search (when enabled) and drained by the
	// engine afterwards. Owned here so its rings share the state's
	// lifecycle and the warm record path never allocates.
	buf trace.Buffer
}

// NewSearchState returns an empty reusable state. Buffers and the worker
// pool are sized lazily by the first Search.
func NewSearchState() *SearchState { return &SearchState{} }

// Close releases the worker pool's goroutines. Whoever drops a state closes
// it: the engine does so for every state its free list does not keep, so
// no search state waits on the pool's finalizer to stop its workers.
func (ss *SearchState) Close() {
	if ss.pool != nil {
		ss.pool.Close()
		ss.pool = nil
	}
}

// SetTracing enables or disables span recording for subsequent searches on
// this state. Rings are sized by the first search's pool setup.
func (ss *SearchState) SetTracing(on bool) { ss.buf.SetEnabled(on) }

// DrainTrace appends the events recorded by the state's last search to dst
// and returns the extended slice plus the count lost to ring overflow.
func (ss *SearchState) DrainTrace(dst []trace.Event) ([]trace.Event, int) {
	return ss.buf.Drain(dst)
}

// ensurePool (re)builds the worker pool when the thread count changes; it
// is a no-op on repeat queries with the same Tnum. The trace buffer is
// (re)sized alongside so every worker has its own event ring.
func (ss *SearchState) ensurePool(threads int) {
	if ss.pool == nil || ss.pool.Workers() != threads {
		if ss.pool != nil {
			ss.pool.Close()
		}
		ss.pool = parallel.NewPool(threads)
		ss.buf.Ensure(ss.pool.Workers())
		ss.pool.SetTrace(&ss.buf)
	}
}

// BottomUp runs parameter resolution, state preparation and the bottom-up
// stage only, returning the depth d of the top-(k,d) problem. This is the
// part of the search that is allocation-free on a warm state — including
// span recording when tracing is enabled; it exists for kernel benchmarks
// and allocation guards — Search is the real entry point.
func (ss *SearchState) BottomUp(in Input, p Params) (int, error) {
	p = p.Defaults()
	if err := in.Validate(); err != nil {
		return 0, err
	}
	ss.ensurePool(p.Threads)
	s := &ss.st
	s.buf = &ss.buf
	ss.buf.Reset()

	t0 := trace.Now()
	s.prepare(in, p, ss.pool)
	t1 := trace.Now()
	s.prof.Phases[PhaseInit] = time.Duration(t1 - t0)
	ss.buf.Record(0, trace.KindInit, t0, t1, -1, int64(len(in.Sources)), 0)
	d, err := s.bottomUp()
	ss.buf.Record(0, trace.KindBottomUp, t0, trace.Now(), -1, s.prof.FrontierTotal, s.prof.EdgesScanned)
	return d, err
}

// Profile returns the profile of the state's last (possibly partial)
// search.
func (ss *SearchState) Profile() Profile { return ss.st.prof }

// Search runs the full two-stage algorithm on the reusable state: CPU-Par
// when p.Threads > 1, the sequential baseline when p.Threads == 1. The
// worker pool persists across calls and is only rebuilt when p.Threads
// changes.
func (ss *SearchState) Search(in Input, p Params) (*Result, error) {
	p = p.Defaults()
	d, err := ss.BottomUp(in, p)
	s := &ss.st
	if err != nil {
		s.in = Input{}
		return nil, err
	}

	t0 := trace.Now()
	answers, err := s.topDown()
	t1 := trace.Now()
	if err != nil {
		s.in = Input{}
		return nil, err
	}
	s.prof.Phases[PhaseTopDown] = time.Duration(t1 - t0)
	ss.buf.Record(0, trace.KindTopDown, t0, t1, -1, int64(len(answers)), int64(len(s.gr.centrals)))

	res := &Result{
		Answers:           answers,
		DepthD:            d,
		CentralCandidates: len(s.gr.centrals),
		Profile:           s.prof,
	}
	// Drop the query's input references so a pooled state does not pin the
	// caller's graph and source slices between queries.
	s.in = Input{}
	return res, nil
}
