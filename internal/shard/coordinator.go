package shard

import (
	"sync"
	"time"

	"wikisearch/internal/core"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/trace"
)

// RunInfo summarizes one sharded query for metrics and the slow-query log.
type RunInfo struct {
	Shards   int
	Levels   int
	Messages int64 // boundary activations exchanged
	Exchange time.Duration
	Merge    time.Duration
	// Imbalance is max/mean of the shards' busy time (1.0 = perfectly
	// balanced); Stall is max−mean — the wait the slowest shard imposed on
	// the rest across the level barriers.
	Imbalance float64
	Stall     time.Duration
	PerShard  []ShardRun
}

// ShardRun is one shard's share of a query.
type ShardRun struct {
	Frontier int64
	Edges    int64
	Busy     time.Duration
}

// ShardStat is one shard's cumulative serving totals.
type ShardStat struct {
	Owned         int     `json:"owned"`
	Ghosts        int     `json:"ghosts"`
	Edges         int     `json:"edges"`
	FrontierTotal int64   `json:"frontier_total"`
	EdgesScanned  int64   `json:"edges_scanned"`
	BusyMs        float64 `json:"busy_ms"`
}

// Stats is a coordinator snapshot for /v1/stats.
type Stats struct {
	Shards     int         `json:"shards"`
	CutEdges   int         `json:"cut_edges"`
	Queries    int64       `json:"queries"`
	Levels     int64       `json:"levels"`
	Messages   int64       `json:"exchange_messages"`
	ExchangeMs float64     `json:"exchange_ms"`
	MergeMs    float64     `json:"merge_ms"`
	PerShard   []ShardStat `json:"per_shard"`
}

// Coordinator executes sharded searches over one Topology. It pools fully
// warmed Runs (per-shard SearchStates, exchange buffers, the merge state),
// so the warm sharded bottom-up is allocation-free like the solo path. Safe
// for concurrent use: each query checks out its own Run.
type Coordinator struct {
	top  *Topology
	runs sync.Pool

	mu       sync.Mutex // cold-path cumulative totals (once per query)
	queries  int64
	levels   int64
	messages int64
	exchange time.Duration
	merged   time.Duration
	totals   []shardTotals
}

type shardTotals struct {
	frontier int64
	edges    int64
	busy     time.Duration
}

// NewCoordinator returns a coordinator over top.
func NewCoordinator(top *Topology) *Coordinator {
	return &Coordinator{top: top, totals: make([]shardTotals, top.N)}
}

// Topology returns the coordinator's sharded graph view.
func (c *Coordinator) Topology() *Topology { return c.top }

// Run is one query's worth of sharded execution state: N pooled shard
// SearchStates plus the merge state, the coordinator's fork/join pool, its
// trace buffer, and the per-(source,destination) exchange buffers. All
// fork/join bodies are prebound so the warm loop allocates nothing. A Run
// must not be copied: a copy aliases every buffer.
//
//wikisearch:nocopy
type Run struct {
	co      *Coordinator
	threads int
	pool    *parallel.Pool
	buf     trace.Buffer

	states []*core.SearchState
	merge  *core.SearchState

	// Per-query working set, written by the coordinator between fork/join
	// barriers and read by the prebound bodies after them.
	qin     []core.Input
	qp      core.Params
	mergeIn core.Input
	mergeP  core.Params
	level   int
	fronts  []int
	newC    [][]graph.NodeID
	// outBuf and route are written only by the owning expand worker of
	// their source-shard slot (the prebound closures built in newRun);
	// between levels the coordinator reads them after the pool join.
	//
	//wikisearch:singlewriter
	outBuf [][]core.BoundaryMsg // per source shard: drained activations
	//wikisearch:singlewriter
	route  [][][]core.BoundaryMsg // [source][destination] exchange buckets
	srcs   [][][]graph.NodeID     // per shard, per keyword: local source ids
	cursor []int                  // k-way central merge cursors

	prof  core.Profile
	depth int
	msgs  int64

	initThunks []func()
	enqueueFn  func(int)
	identifyFn func(int)
	expandFn   func(int)
	applyFn    func(int)
	absorbFn   func(int)
}

// coordWorkers sizes the coordinator pool: one slot per shard, capped by the
// query's thread budget.
func coordWorkers(n, threads int) int {
	if threads < n {
		return threads
	}
	return n
}

// newRun builds one pooled Run: states, exchange buffers and the prebound
// phase closures. The closures are the owning writers of the write-
// partitioned outBuf/route exchange buffers: expandFn(s) alone writes the
// [s] slots, and applyFn reads the [*][d] column after the expand join.
//
//wikisearch:writer
func (c *Coordinator) newRun(threads int) *Run {
	n := c.top.N
	r := &Run{co: c, threads: threads}
	r.states = make([]*core.SearchState, n)
	for s := range r.states {
		r.states[s] = core.NewSearchState()
	}
	r.merge = core.NewSearchState()
	r.pool = parallel.NewPool(coordWorkers(n, threads))
	r.buf.Ensure(r.pool.Workers())
	r.pool.SetTrace(&r.buf)
	r.qin = make([]core.Input, n)
	r.fronts = make([]int, n)
	r.newC = make([][]graph.NodeID, n)
	r.outBuf = make([][]core.BoundaryMsg, n)
	r.route = make([][][]core.BoundaryMsg, n)
	for s := range r.route {
		r.route[s] = make([][]core.BoundaryMsg, n)
	}
	r.srcs = make([][][]graph.NodeID, n)
	r.cursor = make([]int, n)

	r.initThunks = make([]func(), n+1)
	for s := 0; s < n; s++ {
		s := s
		r.initThunks[s] = func() {
			r.states[s].BeginShard(r.qin[s], r.qp, c.top.Part.Shards[s].Owned)
		}
	}
	r.initThunks[n] = func() { r.merge.BeginMerge(r.mergeIn, r.mergeP) }
	r.enqueueFn = func(s int) { r.fronts[s] = r.states[s].ShardEnqueue() }
	r.identifyFn = func(s int) { r.newC[s] = r.states[s].ShardIdentify() }
	r.expandFn = func(s int) {
		r.states[s].ShardExpand()
		out := r.states[s].DrainBoundary(r.outBuf[s][:0])
		r.outBuf[s] = out
		route := r.route[s]
		for d := range route {
			route[d] = route[d][:0]
		}
		// Messages are drained under the sender's ghost-local id; one probe
		// into the compact per-ghost table yields both the destination shard
		// and the node's local id there, so the routed message is already in
		// the owner's coordinates.
		owned := c.top.Part.Shards[s].Owned
		ghosts := c.top.routes[s]
		for _, m := range out {
			rt := ghosts[int(m.Node)-owned]
			route[rt.dest] = append(route[rt.dest], core.BoundaryMsg{Node: graph.NodeID(rt.local), Cols: m.Cols})
		}
	}
	r.applyFn = func(d int) {
		for s := range r.states {
			if msgs := r.route[s][d]; len(msgs) != 0 {
				r.states[d].ApplyBoundary(msgs, r.level)
			}
		}
	}
	r.absorbFn = func(s int) {
		sh := c.top.Part.Shards[s]
		r.merge.AbsorbShard(r.states[s], sh.L2G, sh.Owned)
	}
	return r
}

// acquire checks a warm Run out of the pool, rebuilding its coordinator pool
// if the thread budget changed.
func (c *Coordinator) acquire(threads int) *Run {
	if v := c.runs.Get(); v != nil {
		r := v.(*Run)
		if r.threads != threads {
			r.pool.Close()
			r.pool = parallel.NewPool(coordWorkers(c.top.N, threads))
			r.buf.Ensure(r.pool.Workers())
			r.pool.SetTrace(&r.buf)
			r.threads = threads
		}
		return r
	}
	return c.newRun(threads)
}

func (c *Coordinator) release(r *Run) {
	for _, st := range r.states {
		st.EndShard()
	}
	r.merge.EndShard()
	for s := range r.qin {
		r.qin[s] = core.Input{}
	}
	r.mergeIn = core.Input{}
	c.runs.Put(r)
}

// buildSources scatters the query's global source lists into per-shard local
// lists. Every shard copy of a source node — owned or ghost — is included:
// ghost copies must be marked hit-0 and counted in the shard's contains
// masks so the kernel's keyword/activation gates decide exactly as solo
// (the owner shard alone enqueues the node).
func (r *Run) buildSources(sources [][]graph.NodeID) {
	n := r.co.top.N
	shards := r.co.top.Part.Shards
	q := len(sources)
	for s := 0; s < n; s++ {
		for len(r.srcs[s]) < q {
			r.srcs[s] = append(r.srcs[s], nil)
		}
		r.srcs[s] = r.srcs[s][:q]
		for i := range r.srcs[s] {
			r.srcs[s][i] = r.srcs[s][i][:0]
		}
	}
	for i, list := range sources {
		for _, v := range list {
			for s := 0; s < n; s++ {
				if lo := shards[s].G2L[v]; lo >= 0 {
					r.srcs[s][i] = append(r.srcs[s][i], graph.NodeID(lo))
				}
			}
		}
	}
}

// mergeCentrals k-way merges the shards' newly identified centrals —
// ascending local id per shard, hence ascending global id after translation
// — into the merge state in ascending global order, reproducing the solo
// run's per-level identification order exactly. Returns the number merged.
func (r *Run) mergeCentrals(level int) int {
	n := len(r.states)
	shards := r.co.top.Part.Shards
	for s := 0; s < n; s++ {
		r.cursor[s] = 0
	}
	added := 0
	for {
		best := -1
		var bg graph.NodeID
		for s := 0; s < n; s++ {
			cs := r.newC[s]
			if r.cursor[s] >= len(cs) {
				continue
			}
			g := shards[s].L2G[cs[r.cursor[s]]]
			if best == -1 || g < bg {
				best, bg = s, g
			}
		}
		if best == -1 {
			return added
		}
		r.cursor[best]++
		r.merge.AddCentral(bg, level)
		added++
	}
}

// bottomUp runs the level-synchronous sharded bottom-up stage: per level the
// boundary exchange, the per-shard enqueue, the per-shard identify, the
// global central merge, the monotone termination check, and the per-shard
// expand with message routing — mirroring the solo loop's phase order and
// stopping conditions statement for statement, so the sharded run terminates
// at exactly the solo depth d. On return r.depth, r.prof and r.msgs are set
// and the merge state holds the absorbed global matrix and central set.
// bottomUp reads the exchange buffers only between pool joins (the pending
// count after expand), never concurrently with the writers.
//
//wikisearch:drain
func (c *Coordinator) bottomUp(r *Run, in core.Input, p core.Params, tracing bool) error {
	top := c.top
	n := top.N
	shardLevels, err := top.levelsFor(in.Levels)
	if err != nil {
		return err
	}
	st := p.Threads / n
	if st < 1 {
		st = 1
	}
	r.qp = p
	r.qp.Threads = st
	r.qp.Ctx = nil // shards never poll the context; the coordinator does
	r.mergeIn = in
	r.mergeP = p
	r.buildSources(in.Sources)
	for s := 0; s < n; s++ {
		r.qin[s] = core.Input{G: top.Part.Shards[s].G, Levels: shardLevels[s], Sources: r.srcs[s]}
		r.states[s].SetTracing(tracing)
	}
	r.merge.SetTracing(tracing)
	r.buf.SetEnabled(tracing)
	r.buf.Reset()
	r.prof = core.Profile{}
	r.depth = 0
	r.msgs = 0

	t0 := trace.Now()
	r.pool.Run(r.initThunks...)
	t1 := trace.Now()
	r.prof.Phases[core.PhaseInit] = time.Duration(t1 - t0)
	r.buf.Record(0, trace.KindInit, t0, t1, -1, 0, int64(len(in.Sources)), 0)

	level := 0
	pending := 0
	for {
		if p.Ctx != nil {
			if err := p.Ctx.Err(); err != nil {
				return err
			}
		}
		lvl0 := trace.Now()
		r.level = level
		if pending > 0 {
			r.pool.For(n, r.applyFn)
			r.msgs += int64(pending)
			e1 := trace.Now()
			r.prof.Phases[core.PhaseExchange] += time.Duration(e1 - lvl0)
			r.buf.Record(0, trace.KindExchange, lvl0, e1, level, 1, int64(pending), 0)
			pending = 0
		}

		e1 := trace.Now()
		r.pool.For(n, r.enqueueFn)
		n1 := trace.Now()
		r.prof.Phases[core.PhaseEnqueue] += time.Duration(n1 - e1)
		front := 0
		for _, f := range r.fronts {
			front += f
		}
		if front == 0 {
			// Graph exhausted everywhere: fewer than k Central Graphs exist.
			r.depth = level
			r.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), level, 1, 0, 0)
			break
		}

		r.pool.For(n, r.identifyFn)
		i1 := trace.Now()
		r.prof.Phases[core.PhaseIdentify] += time.Duration(i1 - n1)
		added := r.mergeCentrals(level)
		m1 := trace.Now()
		r.prof.Phases[core.PhaseMerge] += time.Duration(m1 - i1)
		total := r.merge.CentralCount()
		r.buf.Record(0, trace.KindMerge, i1, m1, level, 1, int64(added), int64(total))
		r.prof.Levels++
		if total >= p.TopK || level >= p.MaxLevel {
			// Monotone termination: the merged central count is exactly the
			// solo count at this level (every shard's owned rows match the
			// solo matrix at identify time), so d is fixed here iff the solo
			// loop fixes it here.
			r.depth = level
			r.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), level, 1, int64(front), 0)
			break
		}

		r.pool.For(n, r.expandFn)
		x1 := trace.Now()
		r.prof.Phases[core.PhaseExpand] += time.Duration(x1 - m1)
		for s := range r.outBuf {
			pending += len(r.outBuf[s])
		}
		r.buf.Record(0, trace.KindExpand, m1, x1, level, 1, int64(front), int64(pending))
		r.buf.Record(0, trace.KindLevel, lvl0, x1, level, 1, int64(front), 0)
		level++
	}

	a0 := trace.Now()
	r.pool.For(n, r.absorbFn)
	a1 := trace.Now()
	r.prof.Phases[core.PhaseMerge] += time.Duration(a1 - a0)
	r.buf.Record(0, trace.KindMerge, a0, a1, -1, 1, int64(top.G.NumNodes()), int64(r.merge.CentralCount()))
	for s := 0; s < n; s++ {
		sp := r.states[s].Profile()
		r.prof.FrontierTotal += sp.FrontierTotal
		r.prof.EdgesScanned += sp.EdgesScanned
	}
	r.buf.Record(0, trace.KindBottomUp, t0, a1, -1, 0, r.prof.FrontierTotal, r.prof.EdgesScanned)
	return nil
}

// Search runs one sharded query end to end: the level-synchronous bottom-up
// over all shards, then the unchanged top-down extraction on the absorbed
// global state. Results are bit-identical to the solo engine. The returned
// events (tracing only) combine the coordinator's spans with every shard's.
func (c *Coordinator) Search(in core.Input, p core.Params, tracing bool) (*core.Result, *RunInfo, []trace.Event, int, error) {
	p = p.Defaults()
	r := c.acquire(p.Threads)
	defer c.release(r)
	if err := c.bottomUp(r, in, p, tracing); err != nil {
		return nil, nil, nil, 0, err
	}
	res, err := r.merge.FinishMerge(r.depth)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	mp := r.merge.Profile()
	r.prof.Phases[core.PhaseTopDown] = mp.Phases[core.PhaseTopDown]
	r.prof.TruncatedGraphs = mp.TruncatedGraphs
	res.Profile = r.prof

	info := &RunInfo{
		Shards:   c.top.N,
		Levels:   r.prof.Levels,
		Messages: r.msgs,
		Exchange: r.prof.Phases[core.PhaseExchange],
		Merge:    r.prof.Phases[core.PhaseMerge],
		PerShard: make([]ShardRun, c.top.N),
	}
	var maxBusy, sumBusy time.Duration
	for s := 0; s < c.top.N; s++ {
		sp := r.states[s].Profile()
		busy := sp.Phases[core.PhaseInit] + sp.Phases[core.PhaseEnqueue] +
			sp.Phases[core.PhaseIdentify] + sp.Phases[core.PhaseExpand]
		info.PerShard[s] = ShardRun{Frontier: sp.FrontierTotal, Edges: sp.EdgesScanned, Busy: busy}
		sumBusy += busy
		if busy > maxBusy {
			maxBusy = busy
		}
	}
	if mean := sumBusy / time.Duration(c.top.N); mean > 0 {
		info.Imbalance = float64(maxBusy) / float64(mean)
		info.Stall = maxBusy - mean
	} else {
		info.Imbalance = 1
	}

	var events []trace.Event
	dropped := 0
	if tracing {
		events, dropped = r.buf.Drain(nil)
		for _, st := range r.states {
			var d int
			events, d = st.DrainTrace(events)
			dropped += d
		}
		var d int
		events, d = r.merge.DrainTrace(events)
		dropped += d
	}

	c.mu.Lock()
	c.queries++
	c.levels += int64(r.prof.Levels)
	c.messages += r.msgs
	c.exchange += r.prof.Phases[core.PhaseExchange]
	c.merged += r.prof.Phases[core.PhaseMerge]
	for s := range c.totals {
		c.totals[s].frontier += info.PerShard[s].Frontier
		c.totals[s].edges += info.PerShard[s].Edges
		c.totals[s].busy += info.PerShard[s].Busy
	}
	c.mu.Unlock()
	return res, info, events, dropped, nil
}

// Stats snapshots the coordinator's cumulative serving totals plus the
// static topology shape.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Shards:     c.top.N,
		CutEdges:   c.top.Part.CutEdges,
		Queries:    c.queries,
		Levels:     c.levels,
		Messages:   c.messages,
		ExchangeMs: float64(c.exchange) / float64(time.Millisecond),
		MergeMs:    float64(c.merged) / float64(time.Millisecond),
		PerShard:   make([]ShardStat, c.top.N),
	}
	for s := range st.PerShard {
		sh := c.top.Part.Shards[s]
		st.PerShard[s] = ShardStat{
			Owned:         sh.Owned,
			Ghosts:        sh.Ghosts(),
			Edges:         sh.Edges,
			FrontierTotal: c.totals[s].frontier,
			EdgesScanned:  c.totals[s].edges,
			BusyMs:        float64(c.totals[s].busy) / float64(time.Millisecond),
		}
	}
	return st
}

// Close releases every pooled Run's worker goroutines (best effort: Runs
// checked out concurrently are finalized by their pools instead).
func (c *Coordinator) Close() {
	for {
		v := c.runs.Get()
		if v == nil {
			return
		}
		r := v.(*Run)
		r.pool.Close()
		for _, st := range r.states {
			st.Close()
		}
		r.merge.Close()
	}
}
