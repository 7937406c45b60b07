// Package weight implements §IV of the paper: the degree-of-summary node
// weight (Eq. 2), its min-max normalization, and the Penalty-and-Reward
// mapping (Eq. 3–5) that turns a normalized weight and the tunable α into a
// minimum activation level.
//
// Summary nodes — nodes pointed to by a large number of same-labeled edges,
// like Wikidata's `human` — act as shortcuts producing meaningless
// connections; the weight quantifies that tendency so the activation level
// can delay such nodes during search.
package weight

import (
	"math"
	"slices"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// Raw computes the unnormalized degree of summary of every node by Eq. 2:
//
//	w_i = Σ_{r∈R_i} cnt(r)·log2(1+cnt(r)) / Σ_{r∈R_i} cnt(r)
//
// where R_i is the set of in-edge labels of v_i and cnt(r) the number of
// in-edges of label r. Nodes with no in-edges get weight 0: nothing points
// at them, so they summarize nothing.
func Raw(g *graph.Graph, pool *parallel.Pool) []float64 {
	n := g.NumNodes()
	w := make([]float64, n)
	pool.ForChunks(n, func(start, end int) {
		var s rawScratch
		for v := start; v < end; v++ {
			w[v] = s.node(g, graph.NodeID(v))
		}
	})
	return w
}

// RawNodes recomputes raw[v] = Eq. 2 at each listed node, leaving the rest
// of raw untouched: a node's raw weight reads only its own in-edges, so a
// graph delta moves it only at the targets of added or removed edges.
func RawNodes(g *graph.Graph, raw []float64, nodes []graph.NodeID) {
	var s rawScratch
	for _, v := range nodes {
		raw[v] = s.node(g, v)
	}
}

// rawScratch is the per-worker scratch of the Eq. 2 kernel: a count per
// relation id (all zero between calls) and the node's nonzero counts.
type rawScratch struct {
	counts []int
	vals   []int
}

// node is the one Eq. 2 kernel both Raw and RawNodes call.
func (s *rawScratch) node(g *graph.Graph, v graph.NodeID) float64 {
	_, rels := g.InEdges(v)
	if len(rels) == 0 {
		return 0
	}
	if n := g.NumRels(); len(s.counts) < n {
		s.counts = make([]int, n)
	}
	for _, r := range rels {
		s.counts[r]++
	}
	s.vals = s.vals[:0]
	for _, r := range rels {
		if c := s.counts[r]; c > 0 {
			s.vals = append(s.vals, c)
			s.counts[r] = 0
		}
	}
	// Sum the per-relation terms in sorted count order: float addition is
	// order-sensitive, so summing in in-edge order would let two graphs with
	// the same in-edge multiset but differently ordered lists disagree in
	// the last bit. Live mutation pins every published weight bit-identical
	// to a fresh build, which needs bit-identical raw weights.
	slices.Sort(s.vals)
	var num float64
	for _, c := range s.vals {
		num += float64(c) * math.Log2(1+float64(c))
	}
	return num / float64(len(rels))
}

// Bounds returns the minimum and maximum of w (0, 0 when w is empty).
func Bounds(w []float64) (mn, mx float64) {
	if len(w) == 0 {
		return 0, 0
	}
	mn, mx = w[0], w[0]
	for _, x := range w[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// Scale is the per-node step of Normalize: x min-max rescaled by the raw
// bounds [mn, mx], and 0 when the bounds coincide.
func Scale(x, mn, mx float64) float64 {
	d := mx - mn
	if d == 0 {
		return 0
	}
	return (x - mn) / d
}

// Normalize min-max rescales weights into [0, 1] in place, per §IV-A
// (w'_i = (w_i − min w) / (max w − min w)). A constant weight vector
// normalizes to all zeros.
func Normalize(w []float64) {
	mn, mx := Bounds(w)
	for i := range w {
		w[i] = Scale(w[i], mn, mx)
	}
}

// Compute returns the normalized degree-of-summary weights of every node.
// It is the only full recomputation; live mutation patches its result
// node by node (RawNodes, Scale) and must stay bit-identical to it.
func Compute(g *graph.Graph, pool *parallel.Pool) []float64 {
	w := Raw(g, pool)
	Normalize(w)
	return w
}

// MaxLevel is the largest representable activation level; the node-keyword
// matrix stores levels in a byte with 0xFF reserved for ∞.
const MaxLevel = 250

// Level maps one normalized weight to its minimum activation level by the
// Penalty-and-Reward rules (Eq. 3–5): weights above α add a penalty scaled
// into (0, A]; weights below α subtract a reward scaled into (0, A]; the
// result rounds to the nearest integer because activation levels compare
// against integral BFS levels.
func Level(w, avgDist, alpha float64) int {
	var v float64
	switch {
	case w < alpha:
		reward := avgDist * (alpha - w) / alpha
		v = avgDist - reward
	case w > alpha:
		penalty := avgDist * (w - alpha) / (1 - alpha)
		v = avgDist + penalty
	default:
		v = avgDist
	}
	l := int(math.Round(v))
	if l < 0 {
		l = 0
	}
	if l > MaxLevel {
		l = MaxLevel
	}
	return l
}

// Levels precomputes the activation level of every node for a given α and
// average distance A, packed into bytes for the search kernels.
func Levels(w []float64, avgDist, alpha float64, pool *parallel.Pool) []uint8 {
	out := make([]uint8, len(w))
	pool.For(len(w), func(i int) {
		out[i] = uint8(Level(w[i], avgDist, alpha))
	})
	return out
}

// Distribution buckets nodes by activation level: counts[l] is the number
// of nodes with level l for l < len(counts)-1, and the final bucket
// aggregates everything at or above it — the "≥4" bucket of Fig. 3.
func Distribution(levels []uint8, buckets int) []int {
	counts := make([]int, buckets)
	for _, l := range levels {
		b := int(l)
		if b >= buckets-1 {
			b = buckets - 1
		}
		counts[b]++
	}
	return counts
}
