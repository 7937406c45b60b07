package core

import (
	"time"

	"wikisearch/internal/parallel"
	"wikisearch/internal/trace"
)

// steps is one execution of Algorithm 1's steps — CPU-Par's lock-free
// kernels (state), CPU-Par-d's locked records (dynState) or GPU-Par's device
// kernels (gpuState). The driver calls them in the algorithm's order; each
// returns the count the profile and the trace spans record.
type steps interface {
	// initialize resets the search structures and hits every keyword node
	// at level 0, flagging it a frontier; it returns the number of BFS
	// instances, q.
	initialize() int
	// enqueue turns the flagged frontiers into the level's frontier queue
	// and returns its size.
	enqueue() int
	// identify finds the frontier's Central Nodes at level l and returns
	// how many it found.
	identify(l int) int
	// expand runs Algorithm 2 at level l and returns the adjacency entries
	// it walked.
	expand(l int) int64
	// topDown runs stage two and returns the ranked answers and the number
	// of Central Graphs the MaxGraphNodes cap truncated.
	topDown() ([]*Answer, int, error)
}

// driver runs Algorithm 1 over one variant's steps: Initialization, the
// level loop with its stopping rules, then top-down processing. It owns the
// Profile and the trace spans, so Fig. 6/7's phases are timed in one place,
// on one clock, for all three variants. A nil buf records no spans.
type driver struct {
	p        Params
	buf      *trace.Buffer
	prof     Profile
	centrals int // Central Nodes identified so far
}

// bottomUp runs Initialization and stage one, returning d — the smallest
// depth at which at least k Central Nodes exist (Definition 4), or the level
// at which the search exhausted the graph or hit MaxLevel. A cancelled
// context aborts between levels.
func (dr *driver) bottomUp(st steps) (int, error) {
	t0 := trace.Now()
	q := st.initialize()
	t1 := trace.Now()
	dr.prof.Phases[PhaseInit] = time.Duration(t1 - t0)
	dr.buf.Record(0, trace.KindInit, t0, t1, -1, int64(q), 0)
	d, err := dr.levels(st)
	dr.buf.Record(0, trace.KindBottomUp, t0, trace.Now(), -1, dr.prof.FrontierTotal, dr.prof.EdgesScanned)
	return d, err
}

// levels is the level loop of stage one; each level's span opens at its
// enqueue and closes after its last step.
func (dr *driver) levels(st steps) (int, error) {
	for l := 0; ; l++ {
		if err := ctxErr(dr.p.Ctx); err != nil {
			return l, err
		}
		lvl0 := trace.Now()
		front := int64(st.enqueue())
		t1 := trace.Now()
		dr.prof.Phases[PhaseEnqueue] += time.Duration(t1 - lvl0)
		dr.prof.FrontierTotal += front
		dr.buf.Record(0, trace.KindEnqueue, lvl0, t1, l, front, 0)
		if front == 0 {
			// Graph exhausted: fewer than k Central Graphs exist.
			dr.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), l, 0, 0)
			return l, nil
		}

		t1 = trace.Now()
		found := st.identify(l)
		t2 := trace.Now()
		dr.prof.Phases[PhaseIdentify] += time.Duration(t2 - t1)
		dr.buf.Record(0, trace.KindIdentify, t1, t2, l, front, int64(found))
		dr.prof.Levels++
		dr.centrals += found
		if dr.centrals >= dr.p.TopK || l >= dr.p.MaxLevel {
			// d found.
			dr.buf.Record(0, trace.KindLevel, lvl0, trace.Now(), l, front, 0)
			return l, nil
		}

		t2 = trace.Now()
		edges := st.expand(l)
		t3 := trace.Now()
		dr.prof.Phases[PhaseExpand] += time.Duration(t3 - t2)
		dr.prof.EdgesScanned += edges
		dr.buf.Record(0, trace.KindExpand, t2, t3, l, front, edges)
		dr.buf.Record(0, trace.KindLevel, lvl0, t3, l, front, edges)
	}
}

// search runs both stages of Algorithm 1 over st.
func (dr *driver) search(st steps) (*Result, error) {
	d, err := dr.bottomUp(st)
	if err != nil {
		return nil, err
	}
	t0 := trace.Now()
	answers, capped, err := st.topDown()
	t1 := trace.Now()
	if err != nil {
		return nil, err
	}
	dr.prof.TruncatedGraphs = capped
	dr.prof.Phases[PhaseTopDown] = time.Duration(t1 - t0)
	dr.buf.Record(0, trace.KindTopDown, t0, t1, -1, int64(len(answers)), int64(dr.centrals))
	return &Result{
		Answers:           answers,
		DepthD:            d,
		CentralCandidates: dr.centrals,
		Profile:           dr.prof,
	}, nil
}

// searchOnce validates the query and runs both stages over the steps mk
// builds, on a fork/join pool of its own — the entry of the one-shot
// comparison variants.
func searchOnce(in Input, p Params, mk func(p Params, pool *parallel.Pool) steps) (*Result, error) {
	p = p.Defaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pool := parallel.NewPool(p.Threads)
	defer pool.Close()
	dr := driver{p: p}
	return dr.search(mk(p, pool))
}
