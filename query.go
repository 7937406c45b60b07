package wikisearch

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"wikisearch/internal/core"
	"wikisearch/internal/graph"
	"wikisearch/internal/text"
	"wikisearch/internal/trace"
)

// Variant selects how Search runs the CPU-Par kernel. The paper's other
// execution variants and baselines are in package wikisearch/paper.
type Variant int

const (
	// CPUPar is the lock-free multi-core two-stage algorithm (default).
	CPUPar Variant = iota
	// Sequential runs CPU-Par with one thread (the paper's Tnum=1).
	Sequential
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case CPUPar:
		return "CPU-Par"
	case Sequential:
		return "Sequential"
	}
	return "Unknown"
}

// Query is one keyword search request (parameters of Table III).
type Query struct {
	// Text is the raw keyword query; it is tokenized, stopword-filtered
	// and stemmed, and duplicate terms collapse.
	Text string
	// TopK is k (default 20).
	TopK int
	// Alpha tunes the activation mapping at query time (default 0.1).
	Alpha float64
	// Lambda is the depth exponent of the scoring function (default 0.2).
	Lambda float64
	// Threads is Tnum (default GOMAXPROCS; forced to 1 by Sequential).
	Threads int
	// MaxLevel bounds BFS depth (default 32).
	MaxLevel int
	// Variant selects the thread policy (default CPUPar).
	Variant Variant
	// DisableLevelCover skips the level-cover pruning (§V-C) — an
	// ablation knob: answers keep every extracted hitting-path node.
	DisableLevelCover bool
	// DisableActivation ignores minimum activation levels (§IV) — an
	// ablation knob: the search degrades to plain multi-source BFS
	// instances, which the paper warns yields "arbitrary and meaningless"
	// central graphs on weighted knowledge bases.
	DisableActivation bool
}

// Validate rejects out-of-range query knobs. Zero values mean "use the
// default" and always pass; the engine and the HTTP layer share these
// bounds.
func (q Query) Validate() error {
	if q.TopK != 0 && (q.TopK < 1 || q.TopK > 200) {
		return fmt.Errorf("wikisearch: k must be in [1,200]")
	}
	// The float checks are written so that NaN, which fails every
	// comparison, fails them too.
	if q.Alpha != 0 && !(q.Alpha > 0 && q.Alpha < 1) {
		return fmt.Errorf("wikisearch: alpha must be in (0,1)")
	}
	if q.Lambda != 0 && !(q.Lambda > 0 && q.Lambda <= 1) {
		return fmt.Errorf("wikisearch: lambda must be in (0,1]")
	}
	if q.MaxLevel != 0 && (q.MaxLevel < 1 || q.MaxLevel > 250) {
		return fmt.Errorf("wikisearch: max level must be in [1,250]")
	}
	switch q.Variant {
	case CPUPar, Sequential:
	default:
		return fmt.Errorf("wikisearch: unknown variant %d", q.Variant)
	}
	return nil
}

// AnswerNode is one node of an answer graph, with resolved text.
type AnswerNode struct {
	ID          NodeID
	Label       string
	Description string
	// Keywords are the query terms this node itself contains.
	Keywords []string
	// HitLevels[i] is the hitting level for term i (-1 if never hit).
	HitLevels []int
	// Weight is the node's degree-of-summary weight.
	Weight float64
	// IsCentral marks the Central Node.
	IsCentral bool
}

// AnswerEdge is one hitting-path edge, oriented keyword-source → Central
// Node; Forward reports whether the knowledge graph stores it as From→To.
type AnswerEdge struct {
	From, To NodeID
	Rel      string
	Forward  bool
	// Keywords are the query terms whose hitting paths traverse the edge.
	Keywords []string
}

// Answer is one Central Graph answer.
type Answer struct {
	Central      NodeID
	CentralLabel string
	Depth        int
	Score        float64
	Nodes        []AnswerNode
	Edges        []AnswerEdge
	PrunedNodes  int
}

// NodeIDs returns the answer's node ids.
func (a *Answer) NodeIDs() []NodeID {
	out := make([]NodeID, len(a.Nodes))
	for i := range a.Nodes {
		out[i] = a.Nodes[i].ID
	}
	return out
}

// Result is a search outcome with the per-phase profile of Fig. 6/7.
type Result struct {
	// Terms are the normalized query terms, one BFS instance each.
	Terms   []string
	Answers []Answer
	// Depth is d of the top-(k,d) problem.
	Depth int
	// Candidates counts Central Nodes found by the bottom-up stage.
	Candidates int
	// TruncatedGraphs counts Central Graphs whose extraction hit the
	// engine's per-graph node cap, so answers built from them may be
	// partial. Zero unless the cap was reached.
	TruncatedGraphs int
	// Phases maps phase name → duration; Total sums them.
	Phases map[string]time.Duration
	Total  time.Duration
}

// Search answers a keyword query with the CPU-Par kernel, the one search
// path the service runs; the paper's comparison systems run through
// SearchWith (package wikisearch/paper). The search aborts between levels
// if ctx is cancelled (the online service uses this for request
// deadlines); a nil ctx runs detached. Every call, failed ones included,
// adds exactly one trace to Traces(), which the serving layer folds into
// its latency metrics. Concurrent searches run independently, each on its
// own pooled search state.
func (e *Engine) Search(ctx context.Context, q Query) (*Result, error) {
	var (
		events  []trace.Event
		dropped int
	)
	res, m, err := e.runKernel(ctx, q, func(in core.Input, p core.Params) (*core.Result, error) {
		st := e.acquireState()
		res, err := st.Search(in, p)
		events, dropped = st.DrainTrace(nil)
		e.releaseState(st)
		return res, err
	})
	m.events, m.dropped = events, dropped
	e.collectTrace(ctx, q, res, err, m)
	return res, err
}

// Kernel answers one prepared input. Its types are internal to this
// module, so only the module's own packages can write one; package
// wikisearch/paper passes the paper's comparison systems.
type Kernel func(in core.Input, p core.Params) (*core.Result, error)

// SearchWith answers q like Search, but with kern in place of the CPU-Par
// kernel. It adds no trace: Traces() records only Search calls.
func (e *Engine) SearchWith(ctx context.Context, q Query, kern Kernel) (*Result, error) {
	res, _, err := e.runKernel(ctx, q, kern)
	return res, err
}

// runKernel answers q with kern against the current epoch: it validates q,
// pins the epoch for the whole search, resolves the knobs and terms,
// applies the activation levels, runs kern and resolves the answers' text.
// Search and SearchWith differ only in the kernel they pass. The returned
// traceMeta carries the start time (taken before validation), epoch,
// resolved params and terms for Search's trace, as far as q got.
func (e *Engine) runKernel(ctx context.Context, q Query, kern Kernel) (*Result, traceMeta, error) {
	m := traceMeta{start: startNow()}
	if err := q.Validate(); err != nil {
		return nil, m, err
	}
	// Pin the current epoch for the whole search: one atomic add in, one
	// out. Everything below reads the pinned snapshot, never the engine's
	// epoch pointer, so a concurrent publish can never tear the view.
	ep := e.pinEpoch()
	defer ep.unpin()
	sn := ep.snap
	m.epoch = ep.id
	p := sn.params(q)
	m.params = p
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, m, err
	}
	m.terms = terms
	if ctx != nil && ctx != context.Background() {
		p.Ctx = ctx
	}
	if q.DisableActivation {
		in.Levels = sn.zeroLevels()
	} else {
		in.Levels = sn.activationLevels(p.Alpha, p.Threads, &e.levelComputes)
	}
	res, err := kern(in, p)
	if err != nil {
		return nil, m, err
	}
	return sn.resolve(terms, res), m, nil
}

// params resolves q's knobs into core parameters against one snapshot:
// defaults applied, thread count concretized (Sequential forces one
// thread).
func (sn *snapshot) params(q Query) core.Params {
	if q.Threads <= 0 {
		q.Threads = runtime.GOMAXPROCS(0)
	}
	p := core.Params{
		TopK:              q.TopK,
		Alpha:             q.Alpha,
		Lambda:            q.Lambda,
		AvgDist:           sn.avgDist,
		MaxLevel:          q.MaxLevel,
		Threads:           q.Threads,
		DisableLevelCover: q.DisableLevelCover,
	}.Defaults()
	if q.Variant == Sequential {
		p.Threads = 1
	}
	return p
}

// prepare resolves the raw query into a core.Input (minus activation
// levels, which depend on α) against one pinned snapshot. Term lookups go
// through the delta overlay, so mutated keywords resolve correctly before
// compaction.
func (sn *snapshot) prepare(raw string) (core.Input, []string, error) {
	terms := text.QueryTerms(raw)
	if len(terms) == 0 {
		return core.Input{}, nil, fmt.Errorf("wikisearch: query %q has no keywords after normalization", raw)
	}
	if len(terms) > core.MaxKeywords {
		return core.Input{}, nil, fmt.Errorf("wikisearch: query has %d keywords; maximum is %d", len(terms), core.MaxKeywords)
	}
	sources := make([][]graph.NodeID, len(terms))
	for i, t := range terms {
		sources[i] = sn.lookupTerm(t)
		if len(sources[i]) == 0 {
			return core.Input{}, nil, fmt.Errorf("wikisearch: keyword %q matches no nodes", t)
		}
	}
	return core.Input{
		G:       sn.g,
		Weights: sn.weights,
		Terms:   terms,
		Sources: sources,
	}, terms, nil
}

// resolve converts a core result into the public, text-resolved form. Its
// strings are copies: none aliases a loaded dump's mapping, so a Result
// stays valid after Engine.Close.
func (sn *snapshot) resolve(terms []string, res *core.Result) *Result {
	out := &Result{
		Terms:           terms,
		Depth:           res.DepthD,
		Candidates:      res.CentralCandidates,
		TruncatedGraphs: res.Profile.TruncatedGraphs,
		Phases:          map[string]time.Duration{},
		Total:           res.Profile.Total(),
	}
	for ph := core.Phase(0); int(ph) < len(res.Profile.Phases); ph++ {
		out.Phases[ph.String()] = res.Profile.Phases[ph]
	}
	for _, a := range res.Answers {
		pa := Answer{
			Central:      a.Central,
			CentralLabel: strings.Clone(sn.g.Label(a.Central)),
			Depth:        a.Depth,
			Score:        a.Score,
			PrunedNodes:  a.PrunedNodes,
		}
		for _, n := range a.Nodes {
			an := AnswerNode{
				ID:          n.ID,
				Label:       strings.Clone(sn.g.Label(n.ID)),
				Description: strings.Clone(sn.g.Description(n.ID)),
				Weight:      sn.weights[n.ID],
				IsCentral:   n.ID == a.Central,
			}
			for i, t := range terms {
				if n.Contains&(1<<uint(i)) != 0 {
					an.Keywords = append(an.Keywords, t)
				}
			}
			an.HitLevels = make([]int, len(terms))
			for i, h := range n.HitLevels {
				if h == core.Infinity {
					an.HitLevels[i] = -1
				} else {
					an.HitLevels[i] = int(h)
				}
			}
			pa.Nodes = append(pa.Nodes, an)
		}
		for _, ed := range a.Edges {
			pe := AnswerEdge{
				From:    ed.From,
				To:      ed.To,
				Rel:     sn.rels[ed.Rel],
				Forward: ed.Forward,
			}
			for i, t := range terms {
				if ed.Keywords&(1<<uint(i)) != 0 {
					pe.Keywords = append(pe.Keywords, t)
				}
			}
			pa.Edges = append(pa.Edges, pe)
		}
		out.Answers = append(out.Answers, pa)
	}
	return out
}
