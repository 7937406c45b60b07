package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

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

// Rel interns a relationship type name and returns its id. Past MaxRels
// names the ids wrap around, and Build refuses the graph.
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
// and runs its passes on GOMAXPROCS workers; see buildCSR. It refuses more
// than MaxRels relation types and more than MaxTextBytes bytes of labels or
// of descriptions.
func (b *Builder) Build() (*Graph, error) {
	return b.build(max(1, min(runtime.GOMAXPROCS(0), len(b.from)/minEdgesPerWorker)))
}

// minEdgesPerWorker keeps small builds on the calling goroutine: below it,
// waking a helper costs more than its share of a pass.
const minEdgesPerWorker = 1 << 16

func (b *Builder) build(workers int) (*Graph, error) {
	n := len(b.labels)
	m := len(b.from)
	if len(b.relNames) > MaxRels {
		return nil, fmt.Errorf("graph: %d relation types exceed the limit of %d", len(b.relNames), MaxRels)
	}
	if int64(m) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d edges exceed the limit of %d", m, int64(math.MaxUint32))
	}
	for i := 0; i < m; i++ {
		if int(b.from[i]) >= n || b.from[i] < 0 || int(b.to[i]) >= n || b.to[i] < 0 {
			return nil, fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", i, b.from[i], b.to[i], n)
		}
	}
	g := &Graph{relNames: b.relNames}
	if g.relNames == nil {
		g.relNames = []string{}
	}
	var err error
	if g.labels, g.labelOff, err = PackText("label", b.labels); err != nil {
		return nil, err
	}
	if g.descs, g.descOff, err = PackText("description", b.descs); err != nil {
		return nil, err
	}
	g.outOff, g.outDst, g.outRel, g.inOff, g.inSrc, g.inRel = buildCSR(n, b.from, b.to, b.rel, workers)
	return g, nil
}

// PackText lays ss out back to back in one exactly sized string with
// len(ss)+1 offsets delimiting each entry: the layout of a Graph's labels
// and descriptions, which the storage package also writes for relation
// names and index terms. It refuses more than MaxTextBytes in total.
func PackText(what string, ss []string) (string, []uint32, error) {
	var total int64
	for _, s := range ss {
		total += int64(len(s))
	}
	if err := textLimit(what, total); err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	sb.Grow(int(total))
	off := make([]uint32, len(ss)+1)
	for i, s := range ss {
		sb.WriteString(s)
		off[i+1] = uint32(sb.Len())
	}
	return sb.String(), off, nil
}

// textLimit refuses a total of text that uint32 offsets cannot address.
func textLimit(what string, total int64) error {
	if total > MaxTextBytes {
		return fmt.Errorf("graph: %d bytes of %s text exceed the limit of %d", total, what, int64(MaxTextBytes))
	}
	return nil
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
	outOff []uint32, outDst []NodeID, outRel []RelID,
	inOff []uint32, inSrc []NodeID, inRel []RelID) {
	m := len(from)
	pool := parallel.NewPool(workers)
	defer pool.Close()

	pool.Run(
		func() { outOff = offsets(n, from) },
		func() { inOff = offsets(n, to) },
	)
	outDst, outRel = make([]NodeID, m), make([]RelID, m)
	inSrc, inRel = make([]NodeID, m), make([]RelID, m)
	cursor := make([]uint32, n)

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
func offsets(n int, key []NodeID) []uint32 {
	off := make([]uint32, n+1)
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
func partition(off []uint32, parts int) []int {
	n, m := len(off)-1, int64(off[len(off)-1])
	bounds := make([]int, parts+1)
	for w := 1; w < parts; w++ {
		want := uint32(m * int64(w) / int64(parts))
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
func transpose(sOff []uint32, sNode []NodeID, sRel []RelID, dNode []NodeID, dRel []RelID,
	cursor []uint32, lo, hi NodeID) {
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

// Parts is a flat Graph's representation, array by array: the two CSR
// directions, the label and description text with their offsets (see
// Graph), and the relation names. The storage package writes and maps
// exactly these arrays.
type Parts struct {
	OutOff   []uint32
	OutDst   []NodeID
	OutRel   []RelID
	InOff    []uint32
	InSrc    []NodeID
	InRel    []RelID
	Labels   string
	LabelOff []uint32
	Descs    string
	DescOff  []uint32
	RelNames []string
}

// FromParts assembles a Graph directly from its arrays, which it keeps. It
// is used by the storage loader; Validate is the caller's responsibility.
func FromParts(p Parts) *Graph {
	return &Graph{
		outOff: p.OutOff, outDst: p.OutDst, outRel: p.OutRel,
		inOff: p.InOff, inSrc: p.InSrc, inRel: p.InRel,
		labels: p.Labels, labelOff: p.LabelOff,
		descs: p.Descs, descOff: p.DescOff,
		relNames: p.RelNames,
	}
}

// Parts returns the underlying arrays for serialization. The slices alias
// internal storage and must not be modified. A derived overlay view is
// materialized first so serialization always sees flat CSR arrays.
func (g *Graph) Parts() Parts {
	if g.ov != nil {
		g = g.Materialize()
	}
	return Parts{
		OutOff: g.outOff, OutDst: g.outDst, OutRel: g.outRel,
		InOff: g.inOff, InSrc: g.inSrc, InRel: g.inRel,
		Labels: g.labels, LabelOff: g.labelOff,
		Descs: g.descs, DescOff: g.descOff,
		RelNames: g.relNames,
	}
}
