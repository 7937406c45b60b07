package wikisearch

import (
	"context"
	"time"

	"wikisearch/internal/banks"
	"wikisearch/internal/core"
	"wikisearch/internal/device"
	"wikisearch/internal/gst"
)

// The paper's §VI comparison systems. Search runs only CPU-Par, the system
// the service serves; these methods exist so the reproduction can rebuild
// the paper's figures (internal/bench, cmd/benchrunner, cmd/wikisearch
// -variant and examples/), and nothing on the serving path calls them.

// SearchCPUParD answers q with CPU-Par-d, the lock-based dynamic-memory
// comparison point. Its answers equal Search's.
func (e *Engine) SearchCPUParD(ctx context.Context, q Query) (*Result, error) {
	res, _, err := e.runKernel(ctx, q, func(in core.Input, p core.Params) (*core.Result, error) {
		return core.SearchDynamic(in, p)
	})
	return res, err
}

// SearchGPUPar answers q with GPU-Par: the bottom-up stage runs on the
// simulated SIMT device in the paper's GTX 1080 Ti shape. Its answers equal
// Search's.
func (e *Engine) SearchGPUPar(ctx context.Context, q Query) (*Result, error) {
	res, _, err := e.runKernel(ctx, q, func(in core.Input, p core.Params) (*core.Result, error) {
		gres, err := core.SearchGPU(in, p, device.GTX1080Ti())
		if err != nil {
			return nil, err
		}
		return &gres.Result, nil
	})
	return res, err
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

// SearchExactGST solves q's Group Steiner Tree problem exactly with the
// DPBF dynamic program of Ding et al., ICDE'07 — the paper's reference [7].
// Exponential in the number of keywords (≤ 12); useful as ground truth and
// to reproduce the paper's argument that exact GST is not interactive
// ("this process is rather slow"). maxStates caps the DP states
// (0 = unbounded). Of q's knobs only Text and TopK apply.
func (e *Engine) SearchExactGST(q Query, maxStates int) (*GSTResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ep := e.pinEpoch()
	defer ep.unpin()
	sn := ep.snap
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := gst.Search(sn.g, sn.weights, in.Sources, gst.Options{K: sn.params(q).TopK, MaxStates: maxStates})
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
	return out, nil
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

// SearchBANKS runs the BANKS baseline, a GST-approximation search:
// BANKS-II (the paper's comparison system) when bidirectional is set,
// BANKS-I otherwise. maxVisits caps the iterator visits (0 = unbounded).
// Of q's knobs only Text and TopK apply.
func (e *Engine) SearchBANKS(q Query, bidirectional bool, maxVisits int) (*BanksResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ep := e.pinEpoch()
	defer ep.unpin()
	sn := ep.snap
	in, terms, err := sn.prepare(q.Text)
	if err != nil {
		return nil, err
	}
	search := banks.SearchBANKS1
	if bidirectional {
		search = banks.SearchBANKS2
	}
	start := time.Now()
	res := search(sn.g, sn.weights, in.Sources, banks.Options{K: sn.params(q).TopK, MaxVisits: maxVisits})
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
	return out, nil
}
