// Package trace is the engine's always-on, allocation-free search tracing
// layer. Each worker of a search records fixed-width span events — phase,
// BFS level, frontier/edge counts, nanosecond
// timestamps — into its own single-writer ring buffer; after the search, a
// cold-path drain hands the events to a Collector that assembles per-query
// trace trees keyed by request ID. The record path takes no locks and
// performs no allocations (machine-checked by wikilint's hotpathalloc pass
// and the AllocationFree guards), so tracing stays on in production.
//
// Timestamps are nanoseconds since the package epoch (process start), read
// from the monotonic clock. All rings of one search share that clock, so
// events from different workers order and nest correctly.
package trace

import "time"

// epoch anchors every trace timestamp; Now reads the monotonic clock
// relative to it so events are plain int64 nanoseconds.
var epoch = time.Now()

// Now returns the current trace-clock time: monotonic nanoseconds since the
// package epoch.
//
//wikisearch:hotpath
func Now() int64 { return int64(time.Since(epoch)) }

// Kind identifies what a span measured.
type Kind uint8

// The span kinds, from the outermost handler down to one pool fork/join.
const (
	// KindBottomUp is stage one of Algorithm 1: initialization plus every
	// BFS level.
	KindBottomUp Kind = iota
	// KindInit is the Initialization phase (keyword marking).
	KindInit
	// KindLevel is one BFS level: enqueue, identify and expand.
	KindLevel
	// KindEnqueue is the sequential frontier-enqueue step of a level.
	KindEnqueue
	// KindIdentify is the Central Node identification step of a level.
	KindIdentify
	// KindExpand is the Expansion step of a level.
	KindExpand
	// KindTopDown is stage two: top-down extraction of the Central Graphs.
	KindTopDown
	// KindPoolWork is one worker's busy time inside a fork/join phase.
	KindPoolWork
	// KindPoolJoin is the coordinator's wait after its own chunks ran out —
	// the chunk-scheduling stall signal: a long join under a short own span
	// means the dynamic chunks were skewed across helpers.
	KindPoolJoin
	numKinds
)

var kindNames = [numKinds]string{
	"bottom-up", "init", "level",
	"enqueue", "identify", "expand", "top-down", "pool-work", "pool-join",
}

// String names the kind for trace trees and Chrome trace events.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-width span record (40 bytes): a closed interval on the
// trace clock plus the attribution needed to rebuild a query's tree. The
// meaning of the A/B counters depends on Kind:
//
//	KindInit:                      A=keyword columns
//	KindLevel / KindExpand:        A=frontier size,  B=edges scanned
//	KindEnqueue:                   A=frontier size
//	KindIdentify:                  A=frontier size,  B=centrals found
//	KindTopDown:                   A=answers,        B=central candidates
//	KindPoolWork / KindPoolJoin:   A=phase items,    B=helpers woken
type Event struct {
	Start int64 // trace-clock ns
	End   int64 // trace-clock ns
	A, B  int64 // kind-dependent counters (see above)
	// Level is the BFS level for level-scoped kinds, -1 otherwise.
	Level  int16
	Kind   Kind
	Worker uint8
}

// ringEvents is the per-worker ring capacity (a power of two). At 40 bytes
// per event a full ring is 40KiB per worker; a deep search overwrites its
// oldest events and reports how many were dropped.
const ringEvents = 1024

// ring is a single-writer event ring: exactly one goroutine (the worker the
// ring belongs to) records into it, so a write is one slice store and one
// position increment — no atomics, no locks. The fork/join barriers of the
// owning search provide the happens-before edges the cold-path drain needs.
type ring struct {
	//wikisearch:singlewriter
	ev []Event // len ringEvents
	//wikisearch:singlewriter
	pos uint64 // events recorded since Reset; wraps the ring when > len
}

// record appends one event, overwriting the oldest when full.
//
//wikisearch:hotpath
//wikisearch:writer
func (r *ring) record(e Event) {
	r.ev[r.pos&uint64(len(r.ev)-1)] = e
	r.pos++
}

// Buffer is one search state's set of per-worker rings. It is owned by a
// SearchState and shares its lifecycle: sized once (Ensure), reset per
// search, recorded into by that search's workers only, drained after. A
// Buffer must not be copied: a copy aliases the rings.
//
//wikisearch:nocopy
type Buffer struct {
	rings   []ring
	enabled bool
}

// Ensure sizes the buffer for at least `workers` rings. Cold path: called
// when the owning state's worker pool is (re)built.
//
//wikisearch:coldpath sized when the worker pool is rebuilt, never per search
func (b *Buffer) Ensure(workers int) {
	if workers < 1 {
		workers = 1
	}
	for len(b.rings) < workers {
		b.rings = append(b.rings, ring{ev: make([]Event, ringEvents)})
	}
}

// SetEnabled turns recording on or off; a disabled buffer's Record is a
// single branch.
func (b *Buffer) SetEnabled(on bool) { b.enabled = on }

// On reports whether recording is live. Nil-safe, so un-traced states (the
// one-shot core.Search path) cost one comparison.
//
//wikisearch:hotpath
func (b *Buffer) On() bool { return b != nil && b.enabled }

// Reset forgets all recorded events; called at the start of each search.
// The search has not started, so the owner-only write discipline is
// trivially satisfied.
//
//wikisearch:hotpath
//wikisearch:writer
func (b *Buffer) Reset() {
	if b == nil {
		return
	}
	for i := range b.rings {
		b.rings[i].pos = 0
	}
}

// Record writes one completed span into worker w's ring. It is the only
// hot-path entry point: lock-free, allocation-free, and a no-op when the
// buffer is nil, disabled, or w is out of range.
//
//wikisearch:hotpath
func (b *Buffer) Record(w int, k Kind, start, end int64, level int, a, bb int64) {
	if b == nil || !b.enabled || w >= len(b.rings) {
		return
	}
	b.rings[w].record(Event{
		Start: start, End: end, A: a, B: bb,
		Level: int16(level), Kind: k, Worker: uint8(w),
	})
}

// Drain appends every event recorded since Reset to dst (in per-ring record
// order) and returns the extended slice plus the number of events lost to
// ring overflow. Cold path: the caller sorts and owns the result, and the
// fork/join barrier of the finished search orders the reads after the
// workers' writes.
//
//wikisearch:drain
func (b *Buffer) Drain(dst []Event) ([]Event, int) {
	if b == nil {
		return dst, 0
	}
	dropped := 0
	for i := range b.rings {
		r := &b.rings[i]
		n := r.pos
		lo := uint64(0)
		if n > uint64(len(r.ev)) {
			dropped += int(n - uint64(len(r.ev)))
			lo = n - uint64(len(r.ev))
		}
		mask := uint64(len(r.ev) - 1)
		for j := lo; j < n; j++ {
			dst = append(dst, r.ev[j&mask])
		}
	}
	return dst, dropped
}
