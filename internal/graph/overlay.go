package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file implements live-mutation support for the otherwise immutable CSR
// Graph: a node-granular copy-on-write overlay. A mutated graph is the base
// CSR plus an overlay holding, for each touched node, a complete replacement
// adjacency list (kept sorted by (endpoint, rel) exactly like Builder.Build
// produces, so traversal order — and therefore every search answer — matches
// a fresh build of the same graph). Nodes appended past the base node count
// live entirely in the overlay.
//
// Every Graph accessor consults the overlay behind a single nil check, so
// the search kernels, the weight computation and the exact baselines become
// delta-aware without any kernel changes, and a graph with no overlay pays
// one predictable branch per call.

// nodePatch is the overlay state of one node. For base nodes, adjacency is
// only overridden when adj is true (a pure SetText patch leaves the CSR
// adjacency visible); appended nodes always carry their adjacency here.
type nodePatch struct {
	outDst []NodeID
	outRel []RelID
	inSrc  []NodeID
	inRel  []RelID
	adj    bool // adjacency lists above replace the base CSR lists

	label string
	desc  string
	text  bool // label/desc above replace the base text
}

// overlay is the immutable delta a derived Graph carries. It is built by
// DeltaBuilder.Overlay and never modified afterwards; concurrent readers
// need no synchronization.
type overlay struct {
	baseN    int                   // node count of the base CSR
	patch    map[NodeID]*nodePatch // touched base nodes
	added    []*nodePatch          // nodes with id >= baseN, indexed by id-baseN
	relNames []string              // full relation table (base prefix + new)
	edges    int                   // directed edge count of the overlaid graph
}

// adj returns the adjacency patch for v, or nil when v still reads from the
// base CSR. It must stay allocation-free: it runs inside the hot expansion
// kernels whenever an overlay is installed.
func (o *overlay) adj(v NodeID) *nodePatch {
	if int(v) >= o.baseN {
		return o.added[int(v)-o.baseN]
	}
	if p := o.patch[v]; p != nil && p.adj {
		return p
	}
	return nil
}

// WithOverlay is used by DeltaBuilder.Overlay to derive a mutated view; the
// returned Graph shares the base arrays and must be treated as immutable.
func withOverlay(base *Graph, ov *overlay) *Graph {
	d := *base
	d.ov = ov
	return &d
}

// HasOverlay reports whether g is a derived view carrying unmerged deltas.
func (g *Graph) HasOverlay() bool { return g.ov != nil }

// DeltaStats returns the overlay footprint: nodes appended past the base,
// base nodes with patched adjacency or text, and the signed directed-edge
// delta versus the base CSR. All zeros when g has no overlay.
func (g *Graph) DeltaStats() (addedNodes, patchedNodes, edgeDelta int) {
	if g.ov == nil {
		return 0, 0, 0
	}
	return len(g.ov.added), len(g.ov.patch), g.ov.edges - len(g.outDst)
}

// Materialize folds the overlay into a fresh flat CSR graph. Per-node lists
// are copied in effective order, which Builder-style (endpoint, rel) sorting
// already holds, so the result is answer-identical to a fresh Build of the
// same node/edge multiset. Without an overlay it returns g unchanged.
func (g *Graph) Materialize() *Graph {
	if g.ov == nil {
		return g
	}
	n := g.NumNodes()
	out := &Graph{
		outOff:   make([]uint32, n+1),
		inOff:    make([]uint32, n+1),
		labelOff: make([]uint32, n+1),
		descOff:  make([]uint32, n+1),
		relNames: slices.Clone(g.ov.relNames),
	}
	// DeltaBuilder kept the text totals within MaxTextBytes, so no offset
	// below wraps.
	for v := 0; v < n; v++ {
		out.outOff[v+1] = out.outOff[v] + uint32(g.OutDegree(NodeID(v)))
		out.inOff[v+1] = out.inOff[v] + uint32(g.InDegree(NodeID(v)))
		out.labelOff[v+1] = out.labelOff[v] + uint32(len(g.Label(NodeID(v))))
		out.descOff[v+1] = out.descOff[v] + uint32(len(g.Description(NodeID(v))))
	}
	m := out.outOff[n]
	out.outDst = make([]NodeID, m)
	out.outRel = make([]RelID, m)
	out.inSrc = make([]NodeID, out.inOff[n])
	out.inRel = make([]RelID, out.inOff[n])
	var labels, descs strings.Builder
	labels.Grow(int(out.labelOff[n]))
	descs.Grow(int(out.descOff[n]))
	for v := 0; v < n; v++ {
		dst, rel := g.OutEdges(NodeID(v))
		copy(out.outDst[out.outOff[v]:], dst)
		copy(out.outRel[out.outOff[v]:], rel)
		src, rel2 := g.InEdges(NodeID(v))
		copy(out.inSrc[out.inOff[v]:], src)
		copy(out.inRel[out.inOff[v]:], rel2)
		labels.WriteString(g.Label(NodeID(v)))
		descs.WriteString(g.Description(NodeID(v)))
	}
	out.labels, out.descs = labels.String(), descs.String()
	return out
}

// DeltaBuilder accumulates live mutations against a flat base Graph and
// derives immutable overlay views for publication. It is the single-writer
// side of the epoch machinery: not safe for concurrent use, and the views it
// hands out share nothing mutable with it (Overlay deep-copies the touched
// state). The builder is cumulative — it is rooted at the last compacted
// base and every Overlay call re-derives the full delta — so publishing is
// idempotent and a crash between publishes loses nothing but the tail.
type DeltaBuilder struct {
	base     *Graph
	baseN    int
	patch    map[NodeID]*nodePatch
	added    []*nodePatch
	relNames []string
	relIDs   map[string]RelID
	edges    int
	ops      int
	// labelBytes and descBytes are the text totals of the mutated graph,
	// kept within MaxTextBytes so Materialize's offsets never wrap.
	labelBytes, descBytes int64
}

// NewDeltaBuilder returns a builder rooted at base. A base that itself
// carries an overlay is materialized first so patches copy flat CSR rows.
func NewDeltaBuilder(base *Graph) *DeltaBuilder {
	base = base.Materialize()
	d := &DeltaBuilder{
		base:     base,
		baseN:    base.NumNodes(),
		patch:    make(map[NodeID]*nodePatch),
		relNames: slices.Clone(base.relNames),
		relIDs:   make(map[string]RelID, base.NumRels()),
		edges:    base.NumEdges(),

		labelBytes: int64(len(base.labels)),
		descBytes:  int64(len(base.descs)),
	}
	for i, name := range d.relNames {
		d.relIDs[name] = RelID(i)
	}
	return d
}

// NumNodes returns the node count of the mutated graph.
func (d *DeltaBuilder) NumNodes() int { return d.baseN + len(d.added) }

// Empty reports whether no mutations have been recorded.
func (d *DeltaBuilder) Empty() bool { return d.ops == 0 }

// AddNode appends a node and returns its id. Ids are dense: the first added
// node gets base.NumNodes(), matching a fresh Builder replaying the same ops.
// It refuses text that would take the graph past MaxTextBytes.
func (d *DeltaBuilder) AddNode(label, desc string) (NodeID, error) {
	if err := d.retext("", "", label, desc); err != nil {
		return 0, err
	}
	d.added = append(d.added, &nodePatch{adj: true, text: true, label: label, desc: desc})
	d.ops++
	return NodeID(d.baseN + len(d.added) - 1), nil
}

// retext accounts for one node's text changing from (oldLabel, oldDesc) to
// (label, desc), refusing the change if a total would pass MaxTextBytes.
func (d *DeltaBuilder) retext(oldLabel, oldDesc, label, desc string) error {
	lb := d.labelBytes - int64(len(oldLabel)) + int64(len(label))
	db := d.descBytes - int64(len(oldDesc)) + int64(len(desc))
	if err := textLimit("label", lb); err != nil {
		return err
	}
	if err := textLimit("description", db); err != nil {
		return err
	}
	d.labelBytes, d.descBytes = lb, db
	return nil
}

// Rel interns a relationship type name and returns its id. Base relation ids
// are preserved; new names are appended in first-use order, matching a fresh
// Builder that replays the base edges then the delta. A name past MaxRels
// is refused.
func (d *DeltaBuilder) Rel(name string) (RelID, error) {
	if id, ok := d.relIDs[name]; ok {
		return id, nil
	}
	if len(d.relNames) >= MaxRels {
		return 0, fmt.Errorf("graph: relation %q would exceed the limit of %d relation types", name, MaxRels)
	}
	id := RelID(len(d.relNames))
	d.relNames = append(d.relNames, name)
	d.relIDs[name] = id
	return id, nil
}

// RelByName looks up an interned relation without adding it.
func (d *DeltaBuilder) RelByName(name string) (RelID, bool) {
	id, ok := d.relIDs[name]
	return id, ok
}

func (d *DeltaBuilder) checkNode(v NodeID) error {
	if v < 0 || int(v) >= d.NumNodes() {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, d.NumNodes())
	}
	return nil
}

// adjPatch returns a writable adjacency patch for v, cloning the base CSR
// row on first touch (copy-on-write at node granularity).
func (d *DeltaBuilder) adjPatch(v NodeID) *nodePatch {
	if int(v) >= d.baseN {
		return d.added[int(v)-d.baseN]
	}
	p := d.patch[v]
	if p == nil {
		p = &nodePatch{}
		d.patch[v] = p
	}
	if !p.adj {
		dst, rel := d.base.OutEdges(v)
		p.outDst = slices.Clone(dst)
		p.outRel = slices.Clone(rel)
		src, rel2 := d.base.InEdges(v)
		p.inSrc = slices.Clone(src)
		p.inRel = slices.Clone(rel2)
		p.adj = true
	}
	return p
}

// insertAdj inserts (n, r) keeping the list sorted by (endpoint, rel), the
// invariant Builder.Build establishes and every traversal depends on.
func insertAdj(ids *[]NodeID, rels *[]RelID, n NodeID, r RelID) {
	i := sort.Search(len(*ids), func(i int) bool {
		if (*ids)[i] != n {
			return (*ids)[i] > n
		}
		return (*rels)[i] >= r
	})
	*ids = slices.Insert(*ids, i, n)
	*rels = slices.Insert(*rels, i, r)
}

// removeAdj removes one instance of (n, r); it reports whether one existed.
func removeAdj(ids *[]NodeID, rels *[]RelID, n NodeID, r RelID) bool {
	i := sort.Search(len(*ids), func(i int) bool {
		if (*ids)[i] != n {
			return (*ids)[i] > n
		}
		return (*rels)[i] >= r
	})
	if i >= len(*ids) || (*ids)[i] != n || (*rels)[i] != r {
		return false
	}
	*ids = slices.Delete(*ids, i, i+1)
	*rels = slices.Delete(*rels, i, i+1)
	return true
}

// AddEdge records a directed edge from -> to with relation r. Both endpoints
// must exist and r must be interned.
func (d *DeltaBuilder) AddEdge(from, to NodeID, r RelID) error {
	if err := d.checkNode(from); err != nil {
		return err
	}
	if err := d.checkNode(to); err != nil {
		return err
	}
	if int(r) >= len(d.relNames) {
		return fmt.Errorf("graph: relation id %d out of range [0,%d)", r, len(d.relNames))
	}
	fp := d.adjPatch(from)
	insertAdj(&fp.outDst, &fp.outRel, to, r)
	tp := d.adjPatch(to)
	insertAdj(&tp.inSrc, &tp.inRel, from, r)
	d.edges++
	d.ops++
	return nil
}

// RemoveEdge removes one instance of the directed edge (from, to, r). It
// fails if no such edge exists.
func (d *DeltaBuilder) RemoveEdge(from, to NodeID, r RelID) error {
	if err := d.checkNode(from); err != nil {
		return err
	}
	if err := d.checkNode(to); err != nil {
		return err
	}
	if int(r) >= len(d.relNames) {
		return fmt.Errorf("graph: relation id %d out of range [0,%d)", r, len(d.relNames))
	}
	fp := d.adjPatch(from)
	if !removeAdj(&fp.outDst, &fp.outRel, to, r) {
		return fmt.Errorf("graph: edge (%d)-[%s]->(%d) does not exist", from, d.relNames[r], to)
	}
	tp := d.adjPatch(to)
	if !removeAdj(&tp.inSrc, &tp.inRel, from, r) {
		// The out-list held the edge, so the in-list must too; a miss means
		// the overlay invariants are broken.
		return fmt.Errorf("graph: in-adjacency desync removing (%d)-[%s]->(%d)", from, d.relNames[r], to)
	}
	d.edges--
	d.ops++
	return nil
}

// SetText replaces the label and description of v (the node's keyword
// source). Adjacency is untouched. It refuses text that would take the
// graph past MaxTextBytes.
func (d *DeltaBuilder) SetText(v NodeID, label, desc string) error {
	if err := d.checkNode(v); err != nil {
		return err
	}
	if err := d.retext(d.Label(v), d.Description(v), label, desc); err != nil {
		return err
	}
	if int(v) >= d.baseN {
		p := d.added[int(v)-d.baseN]
		p.label, p.desc = label, desc
		d.ops++
		return nil
	}
	p := d.patch[v]
	if p == nil {
		p = &nodePatch{}
		d.patch[v] = p
	}
	p.label, p.desc, p.text = label, desc, true
	d.ops++
	return nil
}

// Label returns the effective label of v in the pending delta view.
func (d *DeltaBuilder) Label(v NodeID) string {
	if int(v) >= d.baseN {
		return d.added[int(v)-d.baseN].label
	}
	if p := d.patch[v]; p != nil && p.text {
		return p.label
	}
	return d.base.Label(v)
}

// Description returns the effective description of v in the pending view.
func (d *DeltaBuilder) Description(v NodeID) string {
	if int(v) >= d.baseN {
		return d.added[int(v)-d.baseN].desc
	}
	if p := d.patch[v]; p != nil && p.text {
		return p.desc
	}
	return d.base.Description(v)
}

// Overlay derives an immutable mutated view of the base graph. The returned
// Graph shares the base CSR arrays but deep-copies every touched overlay
// structure, so the builder may keep mutating afterwards while readers hold
// the view indefinitely.
func (d *DeltaBuilder) Overlay() *Graph {
	if d.ops == 0 {
		return d.base
	}
	ov := &overlay{
		baseN:    d.baseN,
		patch:    make(map[NodeID]*nodePatch, len(d.patch)),
		added:    make([]*nodePatch, len(d.added)),
		relNames: slices.Clone(d.relNames),
		edges:    d.edges,
	}
	for v, p := range d.patch {
		ov.patch[v] = p.clone()
	}
	for i, p := range d.added {
		ov.added[i] = p.clone()
	}
	return withOverlay(d.base, ov)
}

func (p *nodePatch) clone() *nodePatch {
	q := *p
	q.outDst = slices.Clone(p.outDst)
	q.outRel = slices.Clone(p.outRel)
	q.inSrc = slices.Clone(p.inSrc)
	q.inRel = slices.Clone(p.inRel)
	return &q
}
