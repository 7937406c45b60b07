package wikisearch

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wikisearch/internal/banks"
	"wikisearch/internal/core"
	"wikisearch/internal/device"
	"wikisearch/internal/graph"
	"wikisearch/internal/gst"
	"wikisearch/internal/text"
)

// Variant selects the search implementation; all Central Graph variants
// return identical answers and differ only in execution strategy.
type Variant int

// The implementations evaluated in the paper's §VI, plus the two baseline
// systems it compares against.
const (
	// CPUPar is the lock-free multi-core two-stage algorithm (default).
	CPUPar Variant = iota
	// Sequential runs CPU-Par with one thread (the paper's Tnum=1).
	Sequential
	// CPUParD is the lock-based dynamic-memory comparison point.
	CPUParD
	// GPUPar runs the bottom-up stage on the simulated SIMT device.
	GPUPar
	// ExactGST solves the query's Group Steiner Tree problem exactly with
	// the DPBF dynamic program (the paper's reference [7]); the result is
	// in Result.GST.
	ExactGST
	// BANKS runs the BANKS baseline (BANKS-II when Query.Bidirectional is
	// set, BANKS-I otherwise); the result is in Result.Banks.
	BANKS
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case CPUPar:
		return "CPU-Par"
	case Sequential:
		return "Sequential"
	case CPUParD:
		return "CPU-Par-d"
	case GPUPar:
		return "GPU-Par"
	case ExactGST:
		return "Exact-GST"
	case BANKS:
		return "BANKS"
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
	// Variant selects the implementation (default CPUPar).
	Variant Variant
	// Device overrides the simulated device for GPUPar (default the
	// paper's GTX 1080 Ti shape).
	Device *device.Device
	// DisableLevelCover skips the level-cover pruning (§V-C) — an
	// ablation knob: answers keep every extracted hitting-path node.
	DisableLevelCover bool
	// DisableActivation ignores minimum activation levels (§IV) — an
	// ablation knob: the search degrades to plain multi-source BFS
	// instances, which the paper warns yields "arbitrary and meaningless"
	// central graphs on weighted knowledge bases.
	DisableActivation bool
	// MaxStates caps the DP states of the ExactGST variant (0 = unbounded).
	MaxStates int
	// Bidirectional selects BANKS-II over BANKS-I for the BANKS variant.
	Bidirectional bool
	// MaxVisits caps the iterator visits of the BANKS variant (0 = unbounded).
	MaxVisits int
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
	case CPUPar, Sequential, CPUParD, GPUPar, ExactGST, BANKS:
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
	// TransferSeconds is the simulated device→host matrix transfer
	// (GPU-Par only).
	TransferSeconds float64
	// GST holds the ExactGST variant's trees (nil otherwise).
	GST *GSTResult
	// Banks holds the BANKS variant's trees (nil otherwise).
	Banks *BanksResult
}

// Search answers a keyword query; it is the engine's single entry point for
// every variant. The search aborts between levels if ctx is cancelled (the
// online service uses this for request deadlines); a nil ctx runs detached.
// The outcome — including errors — is reported to the observer installed
// with SetSearchObserver, which the serving layer uses to feed per-phase
// latency histograms. Concurrent searches run independently, each on its
// own pooled search state.
func (e *Engine) Search(ctx context.Context, q Query) (*Result, error) {
	res, err := e.searchContext(ctx, q)
	e.observe(q, res, err)
	return res, err
}

func (e *Engine) searchContext(ctx context.Context, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Pin the current epoch for the whole search: one atomic add in, one
	// out. Everything below reads the pinned snapshot, never the engine's
	// epoch pointer, so a concurrent publish can never tear the view.
	ep := e.pinEpoch()
	defer ep.unpin()
	sn := ep.snap
	start := startNow()
	switch q.Variant {
	case ExactGST:
		res, err := e.searchGST(sn, q)
		e.collectTrace(ctx, q, termsOf(res), res, err, traceMeta{start: start, epoch: ep.id})
		return res, err
	case BANKS:
		res, err := e.searchBanks(sn, q)
		e.collectTrace(ctx, q, termsOf(res), res, err, traceMeta{start: start, epoch: ep.id})
		return res, err
	}
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, err
	}
	return e.runPrepared(ctx, ep, q, in, terms, start)
}

// termsOf extracts a result's normalized terms for trace collection (nil on
// error results).
func termsOf(res *Result) []string {
	if res == nil {
		return nil
	}
	return res.Terms
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

// runPrepared executes a prepared Central Graph query. The caller holds a
// pin on ep for the duration.
func (e *Engine) runPrepared(ctx context.Context, ep *epoch, q Query, in core.Input, terms []string, start searchStart) (*Result, error) {
	sn := ep.snap
	p := sn.params(q)
	if ctx != nil && ctx != context.Background() {
		p.Ctx = ctx
	}
	if q.DisableActivation {
		in.Levels = sn.zeroLevels()
	} else {
		in.Levels = sn.activationLevels(p.Alpha, p.Threads, &e.levelComputes)
	}

	var (
		res      *core.Result
		transfer float64
		err      error
		m        = traceMeta{start: start, epoch: ep.id}
	)
	switch q.Variant {
	case CPUPar, Sequential:
		st := e.acquireState()
		st.SetTracing(e.TracingEnabled())
		res, err = st.Search(in, p)
		m.events, m.dropped = st.DrainTrace(nil)
		e.releaseState(st)
	case CPUParD:
		res, err = core.SearchDynamic(in, p)
	case GPUPar:
		dev := q.Device
		if dev == nil {
			dev = device.GTX1080Ti()
		}
		var gres *core.GPUResult
		gres, err = core.SearchGPU(in, p, dev)
		if gres != nil {
			res = &gres.Result
			transfer = gres.TransferSeconds
		}
	default:
		return nil, fmt.Errorf("wikisearch: unknown variant %d", q.Variant)
	}
	if err != nil {
		e.collectTrace(ctx, q, terms, nil, err, m)
		return nil, err
	}
	out := sn.resolve(terms, res, transfer)
	e.collectTrace(ctx, q, terms, out, nil, m)
	return out, nil
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

// resolve converts a core result into the public, text-resolved form.
func (sn *snapshot) resolve(terms []string, res *core.Result, transfer float64) *Result {
	out := &Result{
		Terms:           terms,
		Depth:           res.DepthD,
		Candidates:      res.CentralCandidates,
		TruncatedGraphs: res.Profile.TruncatedGraphs,
		Phases:          map[string]time.Duration{},
		Total:           res.Profile.Total(),
		TransferSeconds: transfer,
	}
	for ph := core.Phase(0); int(ph) < len(res.Profile.Phases); ph++ {
		out.Phases[ph.String()] = res.Profile.Phases[ph]
	}
	for _, a := range res.Answers {
		pa := Answer{
			Central:      a.Central,
			CentralLabel: sn.g.Label(a.Central),
			Depth:        a.Depth,
			Score:        a.Score,
			PrunedNodes:  a.PrunedNodes,
		}
		for _, n := range a.Nodes {
			an := AnswerNode{
				ID:          n.ID,
				Label:       sn.g.Label(n.ID),
				Description: sn.g.Description(n.ID),
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
				Rel:     sn.g.RelName(ed.Rel),
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

// BanksTree is one BANKS baseline answer tree.
type BanksTree struct {
	Root      NodeID
	RootLabel string
	Score     float64
	Nodes     []NodeID
	// Paths[i] is the root → keyword-i leaf path.
	Paths [][]NodeID
}

// BanksResult is the outcome of a baseline search.
type BanksResult struct {
	Terms   []string
	Trees   []BanksTree
	Visited int
	Elapsed time.Duration
}

// GSTTree is one exact Group Steiner Tree answer.
type GSTTree struct {
	Root      NodeID
	RootLabel string
	Cost      float64
	Nodes     []NodeID
	// Edges are (child, parent) pairs oriented toward the root.
	Edges [][2]NodeID
}

// GSTResult is the outcome of an exact Group Steiner Tree search.
type GSTResult struct {
	Terms   []string
	Trees   []GSTTree
	Popped  int // DP states processed
	Elapsed time.Duration
}

// searchGST runs the ExactGST variant: the DPBF dynamic program of Ding et
// al., ICDE'07 — the paper's reference [7]. Exponential in the number of
// keywords (≤ 12); useful as ground truth and to reproduce the paper's
// argument that exact GST is not interactive ("this process is rather
// slow").
func (e *Engine) searchGST(sn *snapshot, q Query) (*Result, error) {
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, err
	}
	topK := q.TopK
	if topK <= 0 {
		topK = 20
	}
	start := time.Now()
	res, err := gst.Search(sn.g, sn.weights, in.Sources, gst.Options{K: topK, MaxStates: q.MaxStates})
	if err != nil {
		return nil, err
	}
	out := &GSTResult{Terms: terms, Popped: res.Popped, Elapsed: time.Since(start)}
	for _, t := range res.Trees {
		out.Trees = append(out.Trees, GSTTree{
			Root:      t.Root,
			RootLabel: sn.g.Label(t.Root),
			Cost:      t.Cost,
			Nodes:     t.Nodes,
			Edges:     t.Edges,
		})
	}
	return &Result{Terms: terms, Total: out.Elapsed, GST: out}, nil
}

// searchBanks runs the BANKS variant, a baseline GST-approximation search:
// BANKS-II when q.Bidirectional is set (the paper's comparison system),
// BANKS-I otherwise.
func (e *Engine) searchBanks(sn *snapshot, q Query) (*Result, error) {
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, err
	}
	topK := q.TopK
	if topK <= 0 {
		topK = 20
	}
	opts := banks.Options{K: topK, MaxVisits: q.MaxVisits}
	start := time.Now()
	var res *banks.Result
	if q.Bidirectional {
		res = banks.SearchBANKS2(sn.g, sn.weights, in.Sources, opts)
	} else {
		res = banks.SearchBANKS1(sn.g, sn.weights, in.Sources, opts)
	}
	out := &BanksResult{Terms: terms, Visited: res.Visited, Elapsed: time.Since(start)}
	for _, t := range res.Trees {
		out.Trees = append(out.Trees, BanksTree{
			Root:      t.Root,
			RootLabel: sn.g.Label(t.Root),
			Score:     t.Score,
			Nodes:     t.Nodes,
			Paths:     t.Paths,
		})
	}
	return &Result{Terms: terms, Total: out.Elapsed, Banks: out}, nil
}
