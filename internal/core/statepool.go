package core

import (
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
type SearchState struct {
	_    noCopy
	st   state
	dr   driver
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

// start resolves the parameters, validates the query and binds the state
// and a fresh driver to it.
func (ss *SearchState) start(in Input, p Params) error {
	p = p.Defaults()
	if err := in.Validate(); err != nil {
		return err
	}
	ss.ensurePool(p.Threads)
	ss.buf.Reset()
	ss.st.in, ss.st.p, ss.st.pool = in, p, ss.pool
	ss.dr = driver{p: p, buf: &ss.buf}
	return nil
}

// BottomUp runs parameter resolution, Initialization and the bottom-up
// stage only, returning the depth d of the top-(k,d) problem. This is the
// part of the search that is allocation-free on a warm state — including
// span recording when tracing is enabled; it exists for kernel benchmarks
// and allocation guards — Search is the real entry point.
func (ss *SearchState) BottomUp(in Input, p Params) (int, error) {
	if err := ss.start(in, p); err != nil {
		return 0, err
	}
	return ss.dr.bottomUp(&ss.st)
}

// Profile returns the profile of the state's last (possibly partial)
// search.
func (ss *SearchState) Profile() Profile { return ss.dr.prof }

// Search runs the full two-stage algorithm on the reusable state: CPU-Par
// when p.Threads > 1, the sequential baseline when p.Threads == 1. The
// worker pool persists across calls and is only rebuilt when p.Threads
// changes.
func (ss *SearchState) Search(in Input, p Params) (*Result, error) {
	if err := ss.start(in, p); err != nil {
		return nil, err
	}
	res, err := ss.dr.search(&ss.st)
	// Drop the query's input references so a pooled state does not pin the
	// caller's graph and source slices between queries.
	ss.st.in = Input{}
	return res, err
}

// noCopy makes go vet's copylocks check report any copy of a struct that
// holds it. It is zero-size, so as a first field it costs nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
