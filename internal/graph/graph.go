// Package graph implements the knowledge-graph substrate of the paper: a
// bi-directed, node-weighted, node- and edge-labeled graph stored in
// Compressed Sparse Row (CSR) form (§V-A: "We store the graph in Compressed
// Sparse Row (CSR) format and we do not need any node distance index").
//
// Edges are stored directed (Wikidata statements have a direction and the
// degree-of-summary weight of Eq. 2 depends on *in*-edges and their labels),
// but search traverses the graph bi-directed: every edge is usable in both
// directions, which is how the paper "enhances the connection between
// nodes" (§III).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. IDs are dense, in [0, NumNodes).
type NodeID = int32

// RelID identifies a relationship (edge label / Wikidata property).
type RelID = uint16

// The limits of the representation. Every offset array is []uint32, so a
// graph holds at most MaxTextBytes bytes of labels and as many of
// descriptions; a RelID is 16 bits wide, so a graph names at most MaxRels
// relation types. Builder.Build and DeltaBuilder refuse input past either
// limit instead of narrowing it. Builder.Build also refuses more edges than
// uint32 CSR offsets address; a loadable dump holds at most 2^28.
const (
	MaxRels      = math.MaxUint16
	MaxTextBytes = math.MaxUint32
)

// Graph is an immutable CSR knowledge graph. Build one with a Builder or
// load one with the storage package.
type Graph struct {
	// Out-CSR: outOff[v]..outOff[v+1] index into outDst/outRel.
	outOff []uint32
	outDst []NodeID
	outRel []RelID
	// In-CSR (reverse adjacency), same layout.
	inOff []uint32
	inSrc []NodeID
	inRel []RelID

	// Every node's display label (entity name), back to back in one
	// string: v's label is labels[labelOff[v]:labelOff[v+1]]. Descriptions
	// are laid out the same way. A node costs 4 bytes of offset per text,
	// not a 16-byte string header.
	labels   string
	labelOff []uint32
	descs    string
	descOff  []uint32
	relNames []string // relationship type names, indexed by RelID

	// ov, when non-nil, makes this Graph a derived live-mutation view: the
	// overlay's node patches shadow the base arrays above. See overlay.go.
	// Every accessor below pays exactly one nil check for it.
	ov *overlay
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return g.ov.baseN + len(g.ov.added)
	}
	return len(g.outOff) - 1
}

// NumEdges returns the number of stored (directed) edges.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return g.ov.edges
	}
	return len(g.outDst)
}

// NumRels returns the number of relationship types.
func (g *Graph) NumRels() int {
	if g.ov != nil {
		return len(g.ov.relNames)
	}
	return len(g.relNames)
}

// Label returns the display label of v.
func (g *Graph) Label(v NodeID) string {
	if g.ov != nil {
		if int(v) >= g.ov.baseN {
			return g.ov.added[int(v)-g.ov.baseN].label
		}
		if p := g.ov.patch[v]; p != nil && p.text {
			return p.label
		}
	}
	return g.labels[g.labelOff[v]:g.labelOff[v+1]]
}

// Description returns the description text of v (may be empty).
func (g *Graph) Description(v NodeID) string {
	if g.ov != nil {
		if int(v) >= g.ov.baseN {
			return g.ov.added[int(v)-g.ov.baseN].desc
		}
		if p := g.ov.patch[v]; p != nil && p.text {
			return p.desc
		}
	}
	return g.descs[g.descOff[v]:g.descOff[v+1]]
}

// RelName returns the name of relationship type r.
func (g *Graph) RelName(r RelID) string {
	if g.ov != nil {
		return g.ov.relNames[r]
	}
	return g.relNames[r]
}

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return len(p.outDst)
		}
	}
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v NodeID) int {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return len(p.inSrc)
		}
	}
	return int(g.inOff[v+1] - g.inOff[v])
}

// Degree returns the bi-directed degree of v (out + in).
func (g *Graph) Degree(v NodeID) int { return g.OutDegree(v) + g.InDegree(v) }

// OutEdges returns the out-neighbor and relation slices of v. The returned
// slices alias internal storage and must not be modified.
func (g *Graph) OutEdges(v NodeID) ([]NodeID, []RelID) {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return p.outDst, p.outRel
		}
	}
	lo, hi := g.outOff[v], g.outOff[v+1]
	return g.outDst[lo:hi], g.outRel[lo:hi]
}

// InEdges returns the in-neighbor (source) and relation slices of v. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) InEdges(v NodeID) ([]NodeID, []RelID) {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return p.inSrc, p.inRel
		}
	}
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inSrc[lo:hi], g.inRel[lo:hi]
}

// OutNeighbors returns v's out-neighbor slice without the relation labels —
// the expansion kernel iterates raw CSR adjacency and does not need labels.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return p.outDst
		}
	}
	return g.outDst[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns v's in-neighbor (source) slice without the relation
// labels. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			return p.inSrc
		}
	}
	return g.inSrc[g.inOff[v]:g.inOff[v+1]]
}

// ForEachNeighbor calls fn for every bi-directed neighbor of v: first the
// out-edges (out=true), then the in-edges (out=false). This is the traversal
// order used by every BFS in the engine, so results are deterministic.
func (g *Graph) ForEachNeighbor(v NodeID, fn func(n NodeID, rel RelID, out bool)) {
	dst, rel := g.OutEdges(v)
	for i, n := range dst {
		fn(n, rel[i], true)
	}
	src, rel2 := g.InEdges(v)
	for i, n := range src {
		fn(n, rel2[i], false)
	}
}

// Neighbor returns the j-th bi-directed neighbor of v (out-edges first,
// then in-edges), its relation, and whether it is an out-edge. It lets
// SIMT-style kernels stride over a node's adjacency by lane index; j must
// be in [0, Degree(v)).
func (g *Graph) Neighbor(v NodeID, j int) (NodeID, RelID, bool) {
	if g.ov != nil {
		if p := g.ov.adj(v); p != nil {
			if j < len(p.outDst) {
				return p.outDst[j], p.outRel[j], true
			}
			j -= len(p.outDst)
			return p.inSrc[j], p.inRel[j], false
		}
	}
	lo, deg := int(g.outOff[v]), int(g.outOff[v+1]-g.outOff[v])
	if j < deg {
		return g.outDst[lo+j], g.outRel[lo+j], true
	}
	lo = int(g.inOff[v]) + j - deg
	return g.inSrc[lo], g.inRel[lo], false
}

// HasEdge reports whether a directed edge (from, to) exists with any label.
// Neighbor lists are sorted by destination, so this is a binary search.
func (g *Graph) HasEdge(from, to NodeID) bool {
	dst, _ := g.OutEdges(from)
	i := sort.Search(len(dst), func(i int) bool { return dst[i] >= to })
	return i < len(dst) && dst[i] == to
}

// Validate checks internal CSR invariants. It is used by tests and by the
// storage loader to reject corrupt files. A derived overlay view is
// materialized first, so the same invariants hold for mutated graphs.
func (g *Graph) Validate() error {
	if g.ov != nil {
		return g.Materialize().Validate()
	}
	n := g.NumNodes()
	if n < 0 {
		return fmt.Errorf("graph: negative node count")
	}
	if len(g.inOff) != n+1 || len(g.labelOff) != n+1 || len(g.descOff) != n+1 {
		return fmt.Errorf("graph: inOff/labelOff/descOff sized %d/%d/%d, want %d",
			len(g.inOff), len(g.labelOff), len(g.descOff), n+1)
	}
	if len(g.outDst) != len(g.outRel) || len(g.inSrc) != len(g.inRel) {
		return fmt.Errorf("graph: dst/rel length mismatch")
	}
	if len(g.outDst) != len(g.inSrc) {
		return fmt.Errorf("graph: out edges %d != in edges %d", len(g.outDst), len(g.inSrc))
	}
	for _, off := range []struct {
		name string
		off  []uint32
		end  int
	}{
		{"out", g.outOff, len(g.outDst)},
		{"in", g.inOff, len(g.inSrc)},
		{"label", g.labelOff, len(g.labels)},
		{"description", g.descOff, len(g.descs)},
	} {
		if off.off[0] != 0 || int(off.off[n]) != off.end {
			return fmt.Errorf("graph: %s offsets span [%d,%d], want [0,%d]", off.name, off.off[0], off.off[n], off.end)
		}
		for v := 0; v < n; v++ {
			if off.off[v] > off.off[v+1] {
				return fmt.Errorf("graph: non-monotone %s offsets at node %d", off.name, v)
			}
		}
	}
	nr := len(g.relNames)
	if nr > MaxRels {
		return fmt.Errorf("graph: %d relation types, limit %d", nr, MaxRels)
	}
	check := func(ids []NodeID, rels []RelID) error {
		for i, d := range ids {
			if d < 0 || int(d) >= n {
				return fmt.Errorf("graph: edge endpoint %d out of range", d)
			}
			if int(rels[i]) >= nr {
				return fmt.Errorf("graph: relation id %d out of range", rels[i])
			}
		}
		return nil
	}
	if err := check(g.outDst, g.outRel); err != nil {
		return err
	}
	return check(g.inSrc, g.inRel)
}
