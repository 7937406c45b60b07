package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRecordAllocationFree: the record path — the only code that runs
// inside the search kernel — must not allocate.
func TestRecordAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	var b Buffer
	b.Ensure(4)
	b.SetEnabled(true)
	allocs := testing.AllocsPerRun(200, func() {
		t0 := Now()
		for w := 0; w < 4; w++ {
			b.Record(w, KindExpand, t0, Now(), 3, 100, 200)
		}
		b.Record(0, KindLevel, t0, Now(), 3, 100, 200)
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %.1f times per run; want 0", allocs)
	}
	// Overflow the ring: still no allocation.
	allocs = testing.AllocsPerRun(10, func() {
		t0 := Now()
		for i := 0; i < 2*ringEvents; i++ {
			b.Record(1, KindEnqueue, t0, t0, i, 0, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("ring overflow allocated %.1f times per run; want 0", allocs)
	}
}

// TestBufferDrain: events recorded since Reset come back; overflow reports
// the dropped count; disabled and nil buffers record nothing.
func TestBufferDrain(t *testing.T) {
	var b Buffer
	b.Ensure(2)
	b.SetEnabled(true)
	b.Reset()
	b.Record(0, KindInit, 1, 2, -1, 0, 0)
	b.Record(1, KindPoolWork, 3, 4, -1, 0, 0)
	ev, dropped := b.Drain(nil)
	if len(ev) != 2 || dropped != 0 {
		t.Fatalf("drained %d events, %d dropped; want 2, 0", len(ev), dropped)
	}

	b.Reset()
	for i := 0; i < ringEvents+10; i++ {
		b.Record(0, KindEnqueue, int64(i), int64(i), 0, 0, 0)
	}
	ev, dropped = b.Drain(nil)
	if len(ev) != ringEvents || dropped != 10 {
		t.Fatalf("overflow drain: %d events, %d dropped; want %d, 10", len(ev), dropped, ringEvents)
	}
	// The oldest 10 were overwritten: the first surviving event starts at 10.
	if ev[0].Start != 10 {
		t.Fatalf("first surviving event starts at %d; want 10", ev[0].Start)
	}

	b.SetEnabled(false)
	b.Reset()
	b.Record(0, KindInit, 1, 2, -1, 0, 0)
	if ev, _ := b.Drain(nil); len(ev) != 0 {
		t.Fatalf("disabled buffer recorded %d events", len(ev))
	}
	var nb *Buffer
	if nb.On() {
		t.Fatal("nil buffer reports On")
	}
	nb.Record(0, KindInit, 1, 2, -1, 0, 0) // must not panic
	nb.Reset()
	if ev, _ := nb.Drain(nil); len(ev) != 0 {
		t.Fatal("nil buffer drained events")
	}
}

// testTrace builds a small trace: a bottom-up span holding two levels (each
// with enqueue inside), then a top-down span.
func testTrace() *QueryTrace {
	tr := &QueryTrace{
		Query: "xml rdf", Terms: []string{"xml", "rdf"}, Variant: "CPU-Par",
		StartNs: 100, Start: time.Now(), Duration: 1000,
		Events: []Event{
			{Start: 110, End: 900, Kind: KindBottomUp, Level: -1},
			{Start: 120, End: 400, Kind: KindLevel, Level: 0, A: 10},
			{Start: 120, End: 200, Kind: KindEnqueue, Level: 0, A: 10},
			{Start: 410, End: 890, Kind: KindLevel, Level: 1, A: 20},
			{Start: 905, End: 940, Kind: KindTopDown, Level: -1},
		},
	}
	return tr
}

// TestTreeNesting: interval containment parents levels under bottom-up and
// steps under levels, and PhaseNs sums a kind's spans.
func TestTreeNesting(t *testing.T) {
	tr := testTrace()
	root := tr.Tree()
	if root.Name != "search" || len(root.Children) != 2 {
		t.Fatalf("root has %d children; want 2 (bottom-up + top-down)", len(root.Children))
	}
	bu := root.Children[0]
	if bu.Kind != KindBottomUp || len(bu.Children) != 2 {
		t.Fatalf("bottom-up holds %d children; want 2 levels", len(bu.Children))
	}
	lvl0 := bu.Children[0]
	if lvl0.Kind != KindLevel || len(lvl0.Children) != 1 || lvl0.Children[0].Kind != KindEnqueue {
		t.Fatalf("level 0 does not nest its enqueue step: %+v", lvl0)
	}
	if lvl0.Start != 20 { // rebased to the query's own start
		t.Fatalf("level 0 starts at %d; want 20", lvl0.Start)
	}
	if td := root.Children[1]; td.Kind != KindTopDown {
		t.Fatalf("second root child is %s; want top-down", td.Name)
	}
	if got, want := tr.PhaseNs(KindLevel), int64(280+480); got != want {
		t.Fatalf("PhaseNs(level) = %d; want %d", got, want)
	}
}

// TestWriteChrome: the export is valid trace_event JSON with complete
// events and microsecond timestamps.
func TestWriteChrome(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out.TraceEvents) != len(tr.Events)+1 {
		t.Fatalf("%d trace events; want %d", len(out.TraceEvents), len(tr.Events)+1)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 || ev.Pid != 1 {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}
}

// TestCollectorRetention: recent/slow rings, Get, FindRequest, observer.
func TestCollectorRetention(t *testing.T) {
	c := NewCollector()
	c.SetSlowThreshold(500 * time.Millisecond)
	var seen []uint64
	c.SetObserver(func(tr *QueryTrace) { seen = append(seen, tr.ID) })

	fast := &QueryTrace{Query: "fast", RequestID: 7, Duration: time.Millisecond}
	slow := &QueryTrace{Query: "slow", RequestID: 8, Duration: time.Second}
	c.Add(fast)
	c.Add(slow)

	if r := c.Recent(); len(r) != 2 || r[0].Query != "slow" {
		t.Fatalf("recent = %d traces, first %q; want 2, slow (newest first)", len(r), r[0].Query)
	}
	if s := c.Slow(); len(s) != 1 || s[0].Query != "slow" {
		t.Fatalf("slow ring holds %d traces; want just the slow one", len(s))
	}
	if got := c.Get(fast.ID); got != fast {
		t.Fatal("Get did not find the fast trace")
	}
	if got := c.FindRequest(8); got != slow {
		t.Fatal("FindRequest did not find the slow trace")
	}
	if c.FindRequest(0) != nil || c.Get(999) != nil {
		t.Fatal("lookup invented a trace")
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d traces; want 2", len(seen))
	}

	// Unsorted events get sorted for tree assembly at Add.
	tr := &QueryTrace{Events: []Event{
		{Start: 50, End: 60}, {Start: 10, End: 90}, {Start: 10, End: 40},
	}}
	c.Add(tr)
	if tr.Events[0].Start != 10 || tr.Events[0].End != 90 {
		t.Fatalf("events not sorted (Start asc, End desc): %+v", tr.Events)
	}
}

// TestKindNames: every kind stringifies without collisions.
func TestKindNames(t *testing.T) {
	names := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		n := k.String()
		if n == "" || n == "unknown" || names[n] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, n)
		}
		names[n] = true
	}
	if !strings.Contains(numKinds.String(), "unknown") {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}
