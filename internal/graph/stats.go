package graph

import (
	"math"
	"math/rand"

	"wikisearch/internal/parallel"
)

// distScratch is one worker's reusable state for pairwise bi-directed
// distances. The bidirectional BFS itself touches only a small ball around
// each endpoint; what made sampling cost O(pairs·|V|) was allocating and
// filling two |V|-sized distance arrays per pair. A scratch is allocated
// once per worker and reused across pairs: each side's entry packs a
// generation stamp with the BFS depth, so an entry is live only while its
// stamp equals the current generation and starting a pair is one increment
// rather than a |V| fill.
type distScratch struct {
	gen  uint32
	s, t bfsSide
	// spare receives the next level and swaps with the frontier it
	// replaces, so frontiers are reused across levels and pairs.
	spare []NodeID
}

// bfsSide is one direction of a bidirectional search: per-node
// stamp<<32|depth entries, the current frontier and its depth.
type bfsSide struct {
	seen  []uint64
	front []NodeID
	depth int32
}

func newDistScratch(n int) *distScratch {
	return &distScratch{
		s: bfsSide{seen: make([]uint64, n)},
		t: bfsSide{seen: make([]uint64, n)},
	}
}

// reached reports whether side b has reached n in the current generation,
// and at which depth.
func (sc *distScratch) reached(b *bfsSide, n NodeID) (int32, bool) {
	e := b.seen[n]
	return int32(uint32(e)), uint32(e>>32) == sc.gen
}

func (sc *distScratch) mark(b *bfsSide, n NodeID, depth int32) {
	b.seen[n] = uint64(sc.gen)<<32 | uint64(uint32(depth))
}

// distance returns the bi-directed unweighted shortest distance between s
// and t, or -1 if t is unreachable from s. It runs a bidirectional BFS that
// expands the side whose frontier has the smaller total degree and stops
// once the two searched depths cover the best meeting distance found. Once
// the scratch's frontiers have grown to the largest level seen, a call
// allocates nothing.
func (sc *distScratch) distance(g *Graph, s, t NodeID) int {
	if s == t {
		return 0
	}
	sc.gen++
	if sc.gen == 0 { // the stamp wrapped: no stale entry may alias the new one
		clear(sc.s.seen)
		clear(sc.t.seen)
		sc.gen = 1
	}
	sc.mark(&sc.s, s, 0)
	sc.mark(&sc.t, t, 0)
	sc.s.front, sc.t.front = sc.s.front[:0], sc.t.front[:0]
	sc.s.front = append(sc.s.front, s)
	sc.t.front = append(sc.t.front, t)
	sc.s.depth, sc.t.depth = 0, 0
	best := -1
	for len(sc.s.front) > 0 && len(sc.t.front) > 0 {
		var meet int
		if frontierCost(g, sc.s.front) <= frontierCost(g, sc.t.front) {
			meet = sc.expand(g, &sc.s, &sc.t)
		} else {
			meet = sc.expand(g, &sc.t, &sc.s)
		}
		if meet >= 0 && (best < 0 || meet < best) {
			best = meet
		}
		if best >= 0 && int(sc.s.depth+sc.t.depth) >= best {
			return best
		}
	}
	return best
}

func frontierCost(g *Graph, f []NodeID) int {
	c := 0
	for _, v := range f {
		c += g.Degree(v)
	}
	return c
}

// expand advances side a by one BFS level against the opposite side b and
// returns the best meeting distance found at this level (-1 if none).
// Out-neighbors are visited before in-neighbors, as in ForEachNeighbor.
func (sc *distScratch) expand(g *Graph, a, b *bfsSide) int {
	next := sc.spare[:0]
	meet := -1
	for _, v := range a.front {
		out, _ := g.OutEdges(v)
		next, meet = sc.reach(out, a, b, next, meet)
		in, _ := g.InEdges(v)
		next, meet = sc.reach(in, a, b, next, meet)
	}
	sc.spare, a.front = a.front, next
	a.depth++
	return meet
}

// reach marks the neighbors ns not yet reached by side a at depth a.depth+1,
// appends them to next and folds any meeting with side b into meet.
func (sc *distScratch) reach(ns []NodeID, a, b *bfsSide, next []NodeID, meet int) ([]NodeID, int) {
	d := a.depth + 1
	for _, n := range ns {
		if _, ok := sc.reached(a, n); ok {
			continue
		}
		sc.mark(a, n, d)
		if od, ok := sc.reached(b, n); ok {
			if m := int(d + od); meet < 0 || m < meet {
				meet = m
			}
		}
		next = append(next, n)
	}
	return next, meet
}

// DistanceSample holds the result of sampled average-distance estimation
// (the A and Deviation columns of Table II).
type DistanceSample struct {
	Pairs     int     // pairs requested
	Reachable int     // pairs with a finite distance
	Mean      float64 // average shortest distance A over reachable pairs
	Deviation float64 // population standard deviation over reachable pairs
}

// SampleAverageDistance estimates the average shortest distance between two
// random nodes by sampling `pairs` node pairs with the given rng, matching
// the paper's methodology ("We sample ten thousand pairs of nodes to
// estimate the average shortest distances"). All pairs are drawn up front,
// so the rng sequence does not depend on the pool; the pool's workers then
// evaluate them, each with one reused distScratch, and the sums run in pair
// order, so the result is bit-identical for every worker count.
func SampleAverageDistance(g *Graph, pairs int, rng *rand.Rand, pool *parallel.Pool) DistanceSample {
	n := g.NumNodes()
	res := DistanceSample{Pairs: pairs}
	if n < 2 || pairs <= 0 {
		return res
	}
	ends := make([]NodeID, 2*pairs)
	for i := 0; i < pairs; i++ {
		s := NodeID(rng.Intn(n))
		t := NodeID(rng.Intn(n))
		if s == t {
			t = NodeID((int(t) + 1) % n)
		}
		ends[2*i], ends[2*i+1] = s, t
	}
	dists := make([]int32, pairs)
	scratch := make([]*distScratch, pool.Workers())
	pool.ForWorker(pairs, func(w, i int) {
		sc := scratch[w]
		if sc == nil {
			sc = newDistScratch(n)
			scratch[w] = sc
		}
		dists[i] = int32(sc.distance(g, ends[2*i], ends[2*i+1]))
	})
	var sum, sumSq float64
	for _, d := range dists {
		if d < 0 {
			continue
		}
		res.Reachable++
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	if res.Reachable > 0 {
		res.Mean = sum / float64(res.Reachable)
		variance := sumSq/float64(res.Reachable) - res.Mean*res.Mean
		if variance < 0 {
			variance = 0
		}
		res.Deviation = math.Sqrt(variance)
	}
	return res
}

// BFSDistances returns the bi-directed BFS distance from each of the given
// sources to every node (-1 when unreachable). Used by tests as a reference
// implementation and by the relevance oracle.
func BFSDistances(g *Graph, sources ...NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	var queue []NodeID
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(v, func(n NodeID, _ RelID, _ bool) {
			if dist[n] < 0 {
				dist[n] = dist[v] + 1
				queue = append(queue, n)
			}
		})
	}
	return dist
}

// Components labels each node with a connected-component id (bi-directed)
// and returns the labels and the component count.
func Components(g *Graph) ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	var stack []NodeID
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = next
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.ForEachNeighbor(u, func(w NodeID, _ RelID, _ bool) {
				if comp[w] < 0 {
					comp[w] = next
					stack = append(stack, w)
				}
			})
		}
		next++
	}
	return comp, int(next)
}

// LargestComponent returns the nodes of the largest connected component.
func LargestComponent(g *Graph) []NodeID {
	comp, k := Components(g)
	if k == 0 {
		return nil
	}
	sizes := make([]int, k)
	for _, c := range comp {
		sizes[c]++
	}
	bestC, bestN := 0, 0
	for c, s := range sizes {
		if s > bestN {
			bestC, bestN = c, s
		}
	}
	out := make([]NodeID, 0, bestN)
	for v, c := range comp {
		if int(c) == bestC {
			out = append(out, NodeID(v))
		}
	}
	return out
}
