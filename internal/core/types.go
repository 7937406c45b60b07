// Package core implements the paper's primary contribution: the Central
// Graph answer model (§III) and the two-stage parallel algorithm that
// computes top-k Central Graphs (§V) — a lock-free bottom-up multi-BFS that
// solves the top-(k,d) Central Graph problem, followed by top-down
// extraction (Theorem V.4), level-cover pruning and ranking.
package core

import (
	"context"
	"fmt"
	"time"

	"wikisearch/internal/graph"
)

// MaxKeywords bounds the number of BFS instances per query; keyword masks
// are stored in a uint64.
const MaxKeywords = 64

// Params are the runtime knobs of a search (Table III of the paper).
type Params struct {
	TopK    int     // k: answers to return (paper default 20)
	Alpha   float64 // α: degree-of-summary preference (paper default 0.1)
	Lambda  float64 // λ: depth exponent in the scoring function (default 0.2)
	AvgDist float64 // A: sampled average shortest distance of the graph
	// MaxLevel is l_max, the maximum BFS expansion depth; it bounds runaway
	// searches when fewer than k Central Graphs exist.
	MaxLevel int
	// Threads is Tnum, the fork/join parallelism. 1 runs the sequential
	// algorithm, matching the paper's Tnum=1 baseline.
	Threads int
	// MaxGraphNodes caps the size of a single extracted Central Graph
	// (defensive; Central Graphs are compact in practice, §V-C).
	MaxGraphNodes int
	// DisableLevelCover skips the level-cover pruning of §V-C (ablation:
	// answers keep every extracted node).
	DisableLevelCover bool
	// Ctx, when non-nil, cancels the search: the bottom-up stage checks it
	// between levels and the top-down stage between extractions. A
	// cancelled search returns the context's error.
	Ctx context.Context
}

// Defaults fills unset parameters with the paper's defaults.
func (p Params) Defaults() Params {
	if p.TopK <= 0 {
		p.TopK = 20
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.1
	}
	if p.Lambda < 0 {
		p.Lambda = 0
	}
	if p.Lambda == 0 {
		p.Lambda = 0.2
	}
	if p.MaxLevel <= 0 || p.MaxLevel > 250 {
		p.MaxLevel = 32
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	if p.MaxGraphNodes <= 0 {
		p.MaxGraphNodes = 4096
	}
	return p
}

// Input is a prepared query against a prepared graph: the activation levels
// already reflect the query's α, and Sources[i] is T_i, the set of nodes
// containing keyword i.
type Input struct {
	G       *graph.Graph
	Weights []float64 // normalized degree-of-summary weights, len |V|
	Levels  []uint8   // minimum activation levels for the query's α, len |V|
	Terms   []string  // normalized keyword terms, len q
	Sources [][]graph.NodeID
}

// Validate rejects structurally impossible inputs.
func (in *Input) Validate() error {
	if in.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	n := in.G.NumNodes()
	if len(in.Weights) != n || len(in.Levels) != n {
		return fmt.Errorf("core: weights/levels sized %d/%d, want %d", len(in.Weights), len(in.Levels), n)
	}
	q := len(in.Sources)
	if q == 0 {
		return fmt.Errorf("core: query has no keywords")
	}
	if q > MaxKeywords {
		return fmt.Errorf("core: %d keywords exceeds maximum %d", q, MaxKeywords)
	}
	if len(in.Terms) != q {
		return fmt.Errorf("core: %d terms for %d source sets", len(in.Terms), q)
	}
	for i, s := range in.Sources {
		if len(s) == 0 {
			return fmt.Errorf("core: keyword %q matches no nodes", in.Terms[i])
		}
		for _, v := range s {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("core: source node %d out of range", v)
			}
		}
	}
	return nil
}

// Phase identifies one profiled step of Algorithm 1.
type Phase int

// The profiled phases, matching the panels of Fig. 6/7.
const (
	PhaseInit Phase = iota
	PhaseEnqueue
	PhaseIdentify
	PhaseExpand
	PhaseTopDown
	numPhases
)

// String returns the paper's name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "Initialization"
	case PhaseEnqueue:
		return "Enqueuing Frontiers"
	case PhaseIdentify:
		return "Identifying Central Nodes"
	case PhaseExpand:
		return "Expansion"
	case PhaseTopDown:
		return "Top-down Processing"
	}
	return "Unknown"
}

// Profile records per-phase wall time plus search-shape counters.
type Profile struct {
	Phases        [numPhases]time.Duration
	Levels        int   // BFS levels executed
	FrontierTotal int64 // Σ frontier sizes over all levels
	// EdgesScanned counts adjacency entries actually walked during
	// expansion: each expanded frontier node's degree, charged once (one
	// pass covers all columns).
	EdgesScanned int64
	// TruncatedGraphs counts Central Graphs whose extraction hit the
	// MaxGraphNodes cap: their answers, if any survive, are built from a
	// partial graph. Zero on every search the cap did not touch.
	TruncatedGraphs int
}

// Total returns the summed phase time (the "Total time" panel).
func (pr *Profile) Total() time.Duration {
	var t time.Duration
	for _, d := range pr.Phases {
		t += d
	}
	return t
}

// Add accumulates another profile into pr (for workload averaging).
func (pr *Profile) Add(o *Profile) {
	for i := range pr.Phases {
		pr.Phases[i] += o.Phases[i]
	}
	pr.Levels += o.Levels
	pr.FrontierTotal += o.FrontierTotal
	pr.EdgesScanned += o.EdgesScanned
	pr.TruncatedGraphs += o.TruncatedGraphs
}

// AnswerEdge is one hitting-path step inside an answer graph. From expanded
// to To during the bottom-up search (so paths flow keyword sources → Central
// Node); Rel is the label of the underlying graph edge and Forward tells
// whether that edge is stored as From→To (true) or To→From (false) in the
// directed knowledge graph.
type AnswerEdge struct {
	From, To graph.NodeID
	Rel      graph.RelID
	Forward  bool
	Keywords uint64 // mask of keyword indices whose hitting paths use this edge
}

// AnswerNode is one node of an answer graph.
type AnswerNode struct {
	ID graph.NodeID
	// Contains is the mask of query keywords the node itself contains
	// (bit i set ⇔ node ∈ T_i).
	Contains uint64
	// OnPaths is the mask of keywords whose hitting paths traverse the node.
	OnPaths uint64
	// HitLevels[i] is the node's hitting level w.r.t. BFS instance B_i
	// (0xFF when the node was never hit by B_i).
	HitLevels []uint8
}

// Answer is one pruned, scored Central Graph.
type Answer struct {
	Central graph.NodeID
	Depth   int // d(C), Eq. 1
	Score   float64
	Nodes   []AnswerNode
	Edges   []AnswerEdge
	// PrunedNodes counts nodes removed by the level-cover strategy.
	PrunedNodes int
}

// NodeIDs returns the ids of the answer's nodes in extraction order.
func (a *Answer) NodeIDs() []graph.NodeID {
	out := make([]graph.NodeID, len(a.Nodes))
	for i, n := range a.Nodes {
		out[i] = n.ID
	}
	return out
}

// ContainsAllKeywords reports whether the answer's node set covers every
// query keyword by containment — an invariant the engine guarantees.
func (a *Answer) ContainsAllKeywords(q int) bool {
	var mask uint64
	for _, n := range a.Nodes {
		mask |= n.Contains
	}
	return mask == allMask(q)
}

// Result is the outcome of a full two-stage search.
type Result struct {
	Answers []*Answer
	// DepthD is d of the top-(k,d) problem: the level at which the
	// bottom-up stage stopped.
	DepthD int
	// CentralCandidates is the number of Central Nodes identified by the
	// bottom-up stage, i.e. |top-(k,d) set| before pruning and ranking.
	CentralCandidates int
	Profile           Profile
}

func allMask(q int) uint64 {
	if q >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(q)) - 1
}
