// Package paper holds the comparison systems of the paper's §VI
// experiments: CPU-Par-d, GPU-Par, the BANKS-I/II baselines and the exact
// Group Steiner Tree DP (DPBF). The engine in the root package wikisearch
// serves only CPU-Par; these run over an Engine through Engine.SearchWith so
// the reproduction (internal/bench, cmd/benchrunner, cmd/wikisearch
// -variant and examples/) can rebuild the paper's figures, and the serving
// binary does not link them.
package paper

import (
	"context"
	"time"

	"wikisearch"
	"wikisearch/internal/banks"
	"wikisearch/internal/core"
	"wikisearch/internal/device"
	"wikisearch/internal/gst"
)

// CPUParD answers q with CPU-Par-d, the lock-based dynamic-memory
// comparison point. Its answers equal Engine.Search's.
func CPUParD(ctx context.Context, e *wikisearch.Engine, q wikisearch.Query) (*wikisearch.Result, error) {
	return e.SearchWith(ctx, q, core.SearchDynamic)
}

// GPUPar answers q with GPU-Par: the bottom-up stage runs on the simulated
// SIMT device in the paper's GTX 1080 Ti shape. Its answers equal
// Engine.Search's.
func GPUPar(ctx context.Context, e *wikisearch.Engine, q wikisearch.Query) (*wikisearch.Result, error) {
	return e.SearchWith(ctx, q, func(in core.Input, p core.Params) (*core.Result, error) {
		return core.SearchGPU(in, p, device.GTX1080Ti())
	})
}

// GSTTree is one exact Group Steiner Tree answer.
type GSTTree struct {
	Root      wikisearch.NodeID
	RootLabel string
	Cost      float64
	Nodes     []wikisearch.NodeID
	// Edges are (child, parent) pairs oriented toward the root.
	Edges [][2]wikisearch.NodeID
}

// GSTResult is the outcome of an exact Group Steiner Tree search.
type GSTResult struct {
	Terms   []string
	Trees   []GSTTree
	Popped  int // DP states processed
	Elapsed time.Duration
}

// ExactGST solves q's Group Steiner Tree problem exactly with the DPBF
// dynamic program of Ding et al., ICDE'07 — the paper's reference [7].
// Exponential in the number of keywords (≤ 12); useful as ground truth and
// to reproduce the paper's argument that exact GST is not interactive
// ("this process is rather slow"). maxStates caps the DP states
// (0 = unbounded). Of q's knobs only Text and TopK apply.
func ExactGST(e *wikisearch.Engine, q wikisearch.Query, maxStates int) (*GSTResult, error) {
	out := &GSTResult{}
	q.DisableActivation = true // DPBF reads no activation levels
	res, err := e.SearchWith(context.TODO(), q, func(in core.Input, p core.Params) (*core.Result, error) {
		start := time.Now()
		r, err := gst.Search(in.G, in.Weights, in.Sources, gst.Options{K: p.TopK, MaxStates: maxStates})
		if err != nil {
			return nil, err
		}
		out.Popped, out.Elapsed = r.Popped, time.Since(start)
		for _, t := range r.Trees {
			out.Trees = append(out.Trees, GSTTree{
				Root:      t.Root,
				RootLabel: in.G.Label(t.Root),
				Cost:      t.Cost,
				Nodes:     t.Nodes,
				Edges:     t.Edges,
			})
		}
		return &core.Result{}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Terms = res.Terms
	return out, nil
}

// BanksTree is one BANKS baseline answer tree.
type BanksTree struct {
	Root      wikisearch.NodeID
	RootLabel string
	Score     float64
	Nodes     []wikisearch.NodeID
	// Paths[i] is the root → keyword-i leaf path.
	Paths [][]wikisearch.NodeID
}

// BanksResult is the outcome of a baseline search.
type BanksResult struct {
	Terms   []string
	Trees   []BanksTree
	Visited int
	Elapsed time.Duration
}

// BANKS runs the BANKS baseline, a GST-approximation search: BANKS-II (the
// paper's comparison system) when bidirectional is set, BANKS-I otherwise.
// maxVisits caps the iterator visits (0 = unbounded). Of q's knobs only
// Text and TopK apply.
func BANKS(e *wikisearch.Engine, q wikisearch.Query, bidirectional bool, maxVisits int) (*BanksResult, error) {
	search := banks.SearchBANKS1
	if bidirectional {
		search = banks.SearchBANKS2
	}
	out := &BanksResult{}
	q.DisableActivation = true // BANKS reads no activation levels
	res, err := e.SearchWith(context.TODO(), q, func(in core.Input, p core.Params) (*core.Result, error) {
		start := time.Now()
		r := search(in.G, in.Weights, in.Sources, banks.Options{K: p.TopK, MaxVisits: maxVisits})
		out.Visited, out.Elapsed = r.Visited, time.Since(start)
		for _, t := range r.Trees {
			out.Trees = append(out.Trees, BanksTree{
				Root:      t.Root,
				RootLabel: in.G.Label(t.Root),
				Score:     t.Score,
				Nodes:     t.Nodes,
				Paths:     t.Paths,
			})
		}
		return &core.Result{}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Terms = res.Terms
	return out, nil
}
