package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"wikisearch/internal/parallel"
)

// Builder accumulates nodes and directed labeled edges and produces an
// immutable CSR Graph. It is not safe for concurrent use.
type Builder struct {
	labels   []string
	descs    []string
	relNames []string
	relIDs   map[string]RelID

	from []NodeID
	to   []NodeID
	rel  []RelID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return NewBuilderSize(0, 0) }

// NewBuilderSize returns an empty Builder with room for the given numbers
// of nodes and edges, for callers that know their graph's size up front.
func NewBuilderSize(nodes, edges int) *Builder {
	return &Builder{
		relIDs: make(map[string]RelID),
		labels: make([]string, 0, nodes),
		descs:  make([]string, 0, nodes),
		from:   make([]NodeID, 0, edges),
		to:     make([]NodeID, 0, edges),
		rel:    make([]RelID, 0, edges),
	}
}

// AddNode adds a node with the given display label and description and
// returns its id.
func (b *Builder) AddNode(label, desc string) NodeID {
	b.labels = append(b.labels, label)
	b.descs = append(b.descs, desc)
	return NodeID(len(b.labels) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.from) }

// Rel interns a relationship type name and returns its id.
func (b *Builder) Rel(name string) RelID {
	if id, ok := b.relIDs[name]; ok {
		return id
	}
	id := RelID(len(b.relNames))
	b.relNames = append(b.relNames, name)
	b.relIDs[name] = id
	return id
}

// AddEdge adds a directed edge from -> to with relationship r. Endpoints
// must already exist.
func (b *Builder) AddEdge(from, to NodeID, r RelID) {
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.rel = append(b.rel, r)
}

// AddEdgeNamed is AddEdge with a relationship name, interning it on the fly.
func (b *Builder) AddEdgeNamed(from, to NodeID, rel string) {
	b.AddEdge(from, to, b.Rel(rel))
}

// Build constructs the CSR graph. Every adjacency list is sorted by
// (neighbor, relation), so traversal order — and therefore every search
// result in the engine — is deterministic. The build is linear in the graph
// and runs its passes on GOMAXPROCS workers; see buildCSR.
func (b *Builder) Build() (*Graph, error) {
	return b.build(max(1, min(runtime.GOMAXPROCS(0), len(b.from)/minEdgesPerWorker)))
}

// minEdgesPerWorker keeps small builds on the calling goroutine: below it,
// waking a helper costs more than its share of a pass.
const minEdgesPerWorker = 1 << 16

func (b *Builder) build(workers int) (*Graph, error) {
	n := len(b.labels)
	m := len(b.from)
	for i := 0; i < m; i++ {
		if int(b.from[i]) >= n || b.from[i] < 0 || int(b.to[i]) >= n || b.to[i] < 0 {
			return nil, fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", i, b.from[i], b.to[i], n)
		}
	}
	g := &Graph{
		labels:   b.labels,
		descs:    b.descs,
		relNames: b.relNames,
	}
	if g.relNames == nil {
		g.relNames = []string{}
	}
	g.outOff, g.outDst, g.outRel, g.inOff, g.inSrc, g.inRel = buildCSR(n, b.from, b.to, b.rel, workers)
	return g, nil
}

// buildCSR builds both adjacency directions, each list sorted by (neighbor,
// relation), from the edge list (from, to, rel) in three stable scatters
// and no comparison sort:
//
//  1. scatter the edges by destination: in-lists holding their sources in
//     input order;
//  2. transpose them into the out-lists: visiting destinations in order
//     leaves every out-list sorted by destination, and only the relations
//     of parallel edges (one source, one destination) still need ordering;
//  3. transpose the out-lists back into the in-lists, which now arrive
//     sorted by (source, relation) with nothing left to sort.
//
// Each scatter splits the destination lists into contiguous ranges holding
// about m/workers entries; a worker reads the whole source and writes only
// its own range, so the writes never contend and each worker's cursors stay
// in a narrower slice of memory.
func buildCSR(n int, from, to []NodeID, rel []RelID, workers int) (
	outOff []int64, outDst []NodeID, outRel []RelID,
	inOff []int64, inSrc []NodeID, inRel []RelID) {
	m := len(from)
	pool := parallel.NewPool(workers)
	defer pool.Close()

	pool.Run(
		func() { outOff = offsets(n, from) },
		func() { inOff = offsets(n, to) },
	)
	outDst, outRel = make([]NodeID, m), make([]RelID, m)
	inSrc, inRel = make([]NodeID, m), make([]RelID, m)
	cursor := make([]int64, n)

	outParts, inParts := partition(outOff, workers), partition(inOff, workers)
	copy(cursor, inOff)
	pool.For(workers, func(w int) {
		lo, hi := NodeID(inParts[w]), NodeID(inParts[w+1])
		for i, x := range to {
			if x < lo || x >= hi {
				continue
			}
			p := cursor[x]
			cursor[x]++
			inSrc[p], inRel[p] = from[i], rel[i]
		}
	})
	copy(cursor, outOff)
	pool.For(workers, func(w int) {
		lo, hi := outParts[w], outParts[w+1]
		transpose(inOff, inSrc, inRel, outDst, outRel, cursor, NodeID(lo), NodeID(hi))
		for v := lo; v < hi; v++ {
			sortParallelEdges(outDst[outOff[v]:outOff[v+1]], outRel[outOff[v]:outOff[v+1]])
		}
	})
	copy(cursor, inOff)
	pool.For(workers, func(w int) {
		transpose(outOff, outDst, outRel, inSrc, inRel, cursor, NodeID(inParts[w]), NodeID(inParts[w+1]))
	})
	return outOff, outDst, outRel, inOff, inSrc, inRel
}

// offsets returns the CSR offsets of lists keyed by key: off[v+1]-off[v] is
// the number of entries with key v.
func offsets(n int, key []NodeID) []int64 {
	off := make([]int64, n+1)
	for _, k := range key {
		off[k+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	return off
}

// partition splits the lists of off into parts contiguous ranges of about
// equal entry counts: part w is the lists [bounds[w], bounds[w+1]).
func partition(off []int64, parts int) []int {
	n, m := len(off)-1, off[len(off)-1]
	bounds := make([]int, parts+1)
	for w := 1; w < parts; w++ {
		want := m * int64(w) / int64(parts)
		bounds[w] = sort.Search(n, func(v int) bool { return off[v] >= want })
	}
	bounds[parts] = n
	return bounds
}

// sortParallelEdges orders by relation each run of equal neighbors in a
// list that is already sorted by neighbor. A run is the parallel edges of
// one node pair, so the sort is over that pair's multiplicity only.
func sortParallelEdges(nbr []NodeID, rel []RelID) {
	for i := 0; i < len(nbr); {
		j := i + 1
		for j < len(nbr) && nbr[j] == nbr[i] {
			j++
		}
		if j-i > 1 {
			slices.Sort(rel[i:j])
		}
		i = j
	}
}

// transpose appends, for every list u of the source CSR (sOff, sNode, sRel)
// in order and every entry (x, r) of it with x in [lo, hi), the entry
// (u, r) to list x of the destination at cursor[x].
func transpose(sOff []int64, sNode []NodeID, sRel []RelID, dNode []NodeID, dRel []RelID,
	cursor []int64, lo, hi NodeID) {
	for u := 0; u+1 < len(sOff); u++ {
		for i := sOff[u]; i < sOff[u+1]; i++ {
			x := sNode[i]
			if x < lo || x >= hi {
				continue
			}
			p := cursor[x]
			cursor[x]++
			dNode[p], dRel[p] = NodeID(u), sRel[i]
		}
	}
}

// FromParts assembles a Graph directly from CSR arrays. It is used by the
// storage loader; Validate is the caller's responsibility.
func FromParts(outOff []int64, outDst []NodeID, outRel []RelID,
	inOff []int64, inSrc []NodeID, inRel []RelID,
	labels, descs, relNames []string) *Graph {
	return &Graph{
		outOff: outOff, outDst: outDst, outRel: outRel,
		inOff: inOff, inSrc: inSrc, inRel: inRel,
		labels: labels, descs: descs, relNames: relNames,
	}
}

// Parts returns the underlying CSR arrays for serialization. The slices
// alias internal storage and must not be modified. A derived overlay view
// is materialized first so serialization always sees flat CSR arrays.
func (g *Graph) Parts() (outOff []int64, outDst []NodeID, outRel []RelID,
	inOff []int64, inSrc []NodeID, inRel []RelID,
	labels, descs, relNames []string) {
	if g.ov != nil {
		g = g.Materialize()
	}
	return g.outOff, g.outDst, g.outRel, g.inOff, g.inSrc, g.inRel, g.labels, g.descs, g.relNames
}
