package trace

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// QueryTrace is one completed query's assembled trace: identity, resolved
// knobs and the kernel's span events.
type QueryTrace struct {
	ID        uint64 `json:"id"`
	RequestID uint64 `json:"request_id,omitempty"`

	Query   string   `json:"query"`
	Terms   []string `json:"terms"`
	Variant string   `json:"variant"`
	TopK    int      `json:"k"`
	Alpha   float64  `json:"alpha"`
	Lambda  float64  `json:"lambda"`
	// Epoch is the search epoch the query ran against (see Engine.Epoch).
	Epoch uint64 `json:"epoch,omitempty"`

	Start    time.Time     `json:"start"`
	StartNs  int64         `json:"-"` // trace-clock start
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"error,omitempty"`
	Answers  int           `json:"answers"`
	// TruncatedGraphs counts Central Graphs the extraction cap cut short.
	TruncatedGraphs int `json:"truncated_graphs,omitempty"`

	Dropped int     `json:"dropped_events,omitempty"` // lost to ring overflow
	Events  []Event `json:"-"`                        // sorted by (Start asc, End desc)
}

// PhaseNs sums the durations of every span of kind k.
func (t *QueryTrace) PhaseNs(k Kind) int64 {
	var total int64
	for i := range t.Events {
		if ev := &t.Events[i]; ev.Kind == k {
			total += ev.End - ev.Start
		}
	}
	return total
}

// Span is one node of an assembled trace tree. Start is relative to the
// query's own start.
type Span struct {
	Name     string  `json:"name"`
	Kind     Kind    `json:"-"`
	Start    int64   `json:"start_ns"`
	Dur      int64   `json:"dur_ns"`
	Worker   int     `json:"worker"`
	Level    int     `json:"level,omitempty"` // -1 when not level-scoped
	A        int64   `json:"a,omitempty"`
	B        int64   `json:"b,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Tree assembles the trace's events into a span tree rooted at a synthetic
// "search" span covering the whole query. Events are nested by interval
// containment: the events come sorted by (Start asc, End desc), so a stack
// walk parents each span under the innermost span that contains it.
func (t *QueryTrace) Tree() *Span {
	end := t.Duration.Nanoseconds()
	for i := range t.Events {
		if rel := t.Events[i].End - t.StartNs; rel > end {
			end = rel
		}
	}
	root := &Span{Name: "search", Kind: numKinds, Start: 0, Dur: end, Level: -1}
	stack := []*Span{root}
	for i := range t.Events {
		ev := &t.Events[i]
		s := &Span{
			Name:   ev.Kind.String(),
			Kind:   ev.Kind,
			Start:  ev.Start - t.StartNs,
			Dur:    ev.End - ev.Start,
			Worker: int(ev.Worker),
			Level:  int(ev.Level),
			A:      ev.A,
			B:      ev.B,
		}
		for len(stack) > 1 && !contains(stack[len(stack)-1], s) {
			stack = stack[:len(stack)-1]
		}
		parent := stack[len(stack)-1]
		parent.Children = append(parent.Children, s)
		stack = append(stack, s)
	}
	return root
}

// contains reports whether child's interval lies within parent's.
func contains(parent, child *Span) bool {
	return child.Start >= parent.Start && child.Start+child.Dur <= parent.Start+parent.Dur
}

// chromeEvent is one complete ("ph":"X") event of the Chrome trace_event
// format, loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the trace in Chrome trace_event JSON: one complete
// event per span, worker index as the thread id, timestamps relative to the
// query's start. Cold path, used by GET /v1/debug/trace?format=chrome.
func (t *QueryTrace) WriteChrome(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{{
		Name: "search", Cat: "wikisearch", Ph: "X",
		Ts: 0, Dur: float64(t.Duration.Nanoseconds()) / 1e3,
		Pid: 1, Tid: 0,
		Args: map[string]any{
			"query": t.Query, "variant": t.Variant,
			"trace_id": t.ID, "request_id": t.RequestID,
		},
	}}}
	for i := range t.Events {
		ev := &t.Events[i]
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Kind.String(),
			Cat:  "wikisearch",
			Ph:   "X",
			Ts:   float64(ev.Start-t.StartNs) / 1e3,
			Dur:  float64(ev.End-ev.Start) / 1e3,
			Pid:  1,
			Tid:  int(ev.Worker),
			Args: map[string]any{
				"level": int(ev.Level), "a": ev.A, "b": ev.B,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// collectorRing holds the last N traces added, newest last.
type collectorRing struct {
	buf  []*QueryTrace
	next int
	full bool
}

func (r *collectorRing) add(t *QueryTrace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// snapshot returns the held traces, newest first.
func (r *collectorRing) snapshot() []*QueryTrace {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*QueryTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Collector retains recently completed query traces — a bounded recent ring
// plus a separate ring for traces over the slow threshold, so a burst of
// fast queries cannot evict the slow outlier being debugged. All methods
// are safe for concurrent use; Add runs on the cold path after a search.
type Collector struct {
	nextID atomic.Uint64
	slowNs atomic.Int64
	obs    atomic.Pointer[func(*QueryTrace)]

	mu     sync.Mutex
	recent collectorRing
	slow   collectorRing
}

// Capacities of the collector's rings.
const (
	recentTraces = 128
	slowTraces   = 64
)

// NewCollector returns a collector with a 1s slow threshold.
func NewCollector() *Collector {
	c := &Collector{
		recent: collectorRing{buf: make([]*QueryTrace, recentTraces)},
		slow:   collectorRing{buf: make([]*QueryTrace, slowTraces)},
	}
	c.slowNs.Store(int64(time.Second))
	return c
}

// SetSlowThreshold sets the duration at or above which a trace is also
// retained in the slow ring; d <= 0 disables slow capture.
func (c *Collector) SetSlowThreshold(d time.Duration) { c.slowNs.Store(int64(d)) }

// SlowThreshold returns the current slow-capture threshold.
func (c *Collector) SlowThreshold() time.Duration { return time.Duration(c.slowNs.Load()) }

// SetObserver installs (or, with nil, removes) a function invoked with
// every trace added, before it can be evicted — the slow-query log and
// tests hook in here. It must be safe for concurrent use.
func (c *Collector) SetObserver(fn func(*QueryTrace)) {
	if fn == nil {
		c.obs.Store(nil)
		return
	}
	c.obs.Store(&fn)
}

// Add assigns the trace an ID, sorts its events for tree assembly, and
// retains it. The trace must not be mutated after Add.
func (c *Collector) Add(t *QueryTrace) {
	t.ID = c.nextID.Add(1)
	slices.SortStableFunc(t.Events, func(a, b Event) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		// Equal starts: the longer span is the parent; sort it first.
		if a.End != b.End {
			if a.End > b.End {
				return -1
			}
			return 1
		}
		return 0
	})
	c.mu.Lock()
	c.recent.add(t)
	if sl := c.slowNs.Load(); sl > 0 && t.Duration.Nanoseconds() >= sl {
		c.slow.add(t)
	}
	c.mu.Unlock()
	if p := c.obs.Load(); p != nil {
		(*p)(t)
	}
}

// Recent returns the retained recent traces, newest first.
func (c *Collector) Recent() []*QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recent.snapshot()
}

// Slow returns the retained slow traces, newest first.
func (c *Collector) Slow() []*QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slow.snapshot()
}

// Get returns the retained trace with the given ID, or nil.
func (c *Collector) Get(id uint64) *QueryTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range []*collectorRing{&c.recent, &c.slow} {
		for _, t := range r.buf {
			if t != nil && t.ID == id {
				return t
			}
		}
	}
	return nil
}

// FindRequest returns the most recent retained trace for the HTTP request
// ID, or nil.
func (c *Collector) FindRequest(reqID uint64) *QueryTrace {
	if reqID == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *QueryTrace
	for _, r := range []*collectorRing{&c.recent, &c.slow} {
		for _, t := range r.buf {
			if t != nil && t.RequestID == reqID && (best == nil || t.ID > best.ID) {
				best = t
			}
		}
	}
	return best
}
