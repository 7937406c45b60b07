package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// relVocab is pre-interned in fixed order on every build path so RelIDs are
// comparable across the delta and fresh-build graphs.
var relVocab = []string{"next", "linked to", "part of", "instance of", "near"}

// mustRel interns name in d, failing the test on an error.
func mustRel(t testing.TB, d *DeltaBuilder, name string) RelID {
	t.Helper()
	r, err := d.Rel(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustAddNode adds a node to d, failing the test on an error.
func mustAddNode(t testing.TB, d *DeltaBuilder, label, desc string) NodeID {
	t.Helper()
	v, err := d.AddNode(label, desc)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// graphFingerprint captures everything a traversal can observe: node text,
// relation table, and per-node bi-directed adjacency in iteration order.
func graphFingerprint(t *testing.T, g *Graph) string {
	t.Helper()
	s := fmt.Sprintf("n=%d m=%d r=%d\n", g.NumNodes(), g.NumEdges(), g.NumRels())
	for r := RelID(0); int(r) < g.NumRels(); r++ {
		s += fmt.Sprintf("rel %d=%s\n", r, g.RelName(r))
	}
	for v := 0; v < g.NumNodes(); v++ {
		s += fmt.Sprintf("v%d %q %q deg=%d/%d:", v, g.Label(NodeID(v)), g.Description(NodeID(v)),
			g.OutDegree(NodeID(v)), g.InDegree(NodeID(v)))
		g.ForEachNeighbor(NodeID(v), func(n NodeID, rel RelID, out bool) {
			s += fmt.Sprintf(" (%d,%d,%v)", n, rel, out)
		})
		s += "\n"
	}
	return s
}

// op is one recorded mutation, replayable against both a DeltaBuilder and a
// fresh Builder.
type op struct {
	kind        string // add_node, add_edge, remove_edge, set_text
	label, desc string
	from, to    NodeID
	rel         string
}

// finalGraph replays the whole op stream into a fresh Builder: final text
// per node, surviving edge multiset in insertion order.
func finalGraph(t *testing.T, ops []op) *Graph {
	t.Helper()
	type edge struct {
		from, to NodeID
		rel      string
	}
	var labels, descs []string
	var edges []edge
	for _, o := range ops {
		switch o.kind {
		case "add_node":
			labels = append(labels, o.label)
			descs = append(descs, o.desc)
		case "add_edge":
			edges = append(edges, edge{o.from, o.to, o.rel})
		case "remove_edge":
			for i, e := range edges {
				if e.from == o.from && e.to == o.to && e.rel == o.rel {
					edges = append(edges[:i], edges[i+1:]...)
					break
				}
			}
		case "set_text":
			labels[o.from] = o.label
			descs[o.from] = o.desc
		}
	}
	b := NewBuilder()
	for _, r := range relVocab {
		b.Rel(r)
	}
	for i := range labels {
		b.AddNode(labels[i], descs[i])
	}
	for _, e := range edges {
		b.AddEdgeNamed(e.from, e.to, e.rel)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomOps emits n random mutations valid for a graph that currently has
// `nodes` nodes and the live edges accumulated in the stream so far.
func randomOps(rng *rand.Rand, stream []op, n int) []op {
	type edge struct {
		from, to NodeID
		rel      string
	}
	var live []edge
	nodes := 0
	for _, o := range stream {
		switch o.kind {
		case "add_node":
			nodes++
		case "add_edge":
			live = append(live, edge{o.from, o.to, o.rel})
		case "remove_edge":
			for i, e := range live {
				if e.from == o.from && e.to == o.to && e.rel == o.rel {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	var ops []op
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 2:
			ops = append(ops, op{kind: "add_node",
				label: fmt.Sprintf("node %d extra", nodes), desc: fmt.Sprintf("desc %d", nodes)})
			nodes++
		case k < 7 || len(live) == 0:
			e := edge{NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)), relVocab[rng.Intn(len(relVocab))]}
			ops = append(ops, op{kind: "add_edge", from: e.from, to: e.to, rel: e.rel})
			live = append(live, e)
		case k < 9:
			j := rng.Intn(len(live))
			e := live[j]
			live = append(live[:j], live[j+1:]...)
			ops = append(ops, op{kind: "remove_edge", from: e.from, to: e.to, rel: e.rel})
		default:
			v := NodeID(rng.Intn(nodes))
			ops = append(ops, op{kind: "set_text", from: v,
				label: fmt.Sprintf("relabel %d round %d", v, i), desc: fmt.Sprintf("redesc %d", i)})
		}
	}
	return ops
}

func applyToDelta(t *testing.T, d *DeltaBuilder, ops []op) {
	t.Helper()
	for _, o := range ops {
		var err error
		switch o.kind {
		case "add_node":
			mustAddNode(t, d, o.label, o.desc)
		case "add_edge":
			err = d.AddEdge(o.from, o.to, mustRel(t, d, o.rel))
		case "remove_edge":
			err = d.RemoveEdge(o.from, o.to, mustRel(t, d, o.rel))
		case "set_text":
			err = d.SetText(o.from, o.label, o.desc)
		}
		if err != nil {
			t.Fatalf("%s(%d,%d,%s): %v", o.kind, o.from, o.to, o.rel, err)
		}
	}
}

// TestOverlayEquivalence replays random mutation streams against a
// DeltaBuilder (overlay view + Materialize) and a fresh Builder on the final
// graph, and requires identical observable graphs.
func TestOverlayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			baseN := 5 + rng.Intn(10)
			var stream []op
			for i := 0; i < baseN; i++ {
				stream = append(stream, op{kind: "add_node",
					label: fmt.Sprintf("node %d", i), desc: fmt.Sprintf("base desc %d", i)})
			}
			baseEdges := randomOps(rng, stream, 3*baseN)
			stream = append(stream, baseEdges...)
			base := finalGraph(t, stream)

			d := NewDeltaBuilder(base)
			deltaOps := randomOps(rng, stream, 4*baseN)
			stream = append(stream, deltaOps...)
			applyToDelta(t, d, deltaOps)

			view := d.Overlay()
			flat := view.Materialize()
			fresh := finalGraph(t, stream)

			if err := view.Validate(); err != nil {
				t.Fatalf("overlay view invalid: %v", err)
			}
			fpView := graphFingerprint(t, view)
			fpFlat := graphFingerprint(t, flat)
			fpFresh := graphFingerprint(t, fresh)
			if fpView != fpFresh {
				t.Errorf("overlay view differs from fresh build:\n--- view ---\n%s--- fresh ---\n%s", fpView, fpFresh)
			}
			if fpFlat != fpFresh {
				t.Errorf("materialized differs from fresh build:\n--- flat ---\n%s--- fresh ---\n%s", fpFlat, fpFresh)
			}
			if flat.HasOverlay() {
				t.Error("Materialize returned a graph still carrying an overlay")
			}
			added, patched, edgeDelta := view.DeltaStats()
			wantEdgeDelta := fresh.NumEdges() - base.NumEdges()
			if edgeDelta != wantEdgeDelta {
				t.Errorf("DeltaStats edgeDelta = %d, want %d", edgeDelta, wantEdgeDelta)
			}
			if added != fresh.NumNodes()-base.NumNodes() {
				t.Errorf("DeltaStats added = %d, want %d", added, fresh.NumNodes()-base.NumNodes())
			}
			_ = patched
		})
	}
}

// TestOverlayIsolation checks that views handed out by Overlay are immune to
// later builder mutations, and that an untouched builder returns the base.
func TestOverlayIsolation(t *testing.T) {
	base := buildPath(t, 6)
	d := NewDeltaBuilder(base)
	if d.Overlay() != base {
		t.Fatal("empty builder should hand back the base graph")
	}
	r := mustRel(t, d, "next")
	if err := d.AddEdge(0, 5, r); err != nil {
		t.Fatal(err)
	}
	v1 := d.Overlay()
	fp1 := graphFingerprint(t, v1)
	if err := d.AddEdge(5, 0, r); err != nil {
		t.Fatal(err)
	}
	if err := d.SetText(0, "mutated", "changed"); err != nil {
		t.Fatal(err)
	}
	mustAddNode(t, d, "seven", "new node")
	if got := graphFingerprint(t, v1); got != fp1 {
		t.Errorf("published view changed after later mutations:\nbefore:\n%s\nafter:\n%s", fp1, got)
	}
	v2 := d.Overlay()
	if v2.NumNodes() != 7 || v2.Label(0) != "mutated" {
		t.Fatalf("second view stale: n=%d label0=%q", v2.NumNodes(), v2.Label(0))
	}
	if base.HasOverlay() || base.NumNodes() != 6 {
		t.Fatal("base graph mutated")
	}
}

// TestOverlayRemoveEdgeErrors pins the error behavior of RemoveEdge.
func TestOverlayRemoveEdgeErrors(t *testing.T) {
	base := buildPath(t, 3)
	d := NewDeltaBuilder(base)
	r := mustRel(t, d, "next")
	if err := d.RemoveEdge(0, 2, r); err == nil {
		t.Fatal("expected error removing missing edge")
	}
	if err := d.RemoveEdge(0, 1, r); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(0, 1, r); err == nil {
		t.Fatal("expected error removing edge twice")
	}
	if got := d.Overlay().NumEdges(); got != base.NumEdges()-1 {
		t.Fatalf("edges = %d, want %d", got, base.NumEdges()-1)
	}
	if err := d.AddEdge(0, 99, r); err == nil {
		t.Fatal("expected range error")
	}
}

// TestOverlayPartsMaterializes checks Parts on a derived view returns flat
// arrays equal to the materialized graph's.
func TestOverlayPartsMaterializes(t *testing.T) {
	base := buildPath(t, 4)
	d := NewDeltaBuilder(base)
	mustAddNode(t, d, "four", "tail")
	if err := d.AddEdge(3, 4, mustRel(t, d, "next")); err != nil {
		t.Fatal(err)
	}
	view := d.Overlay()
	if !reflect.DeepEqual(view.Parts(), view.Materialize().Parts()) {
		t.Fatal("Parts() differs from the materialized graph's")
	}
}

// TestDeltaBuilderLimits: a mutation past a limit is refused with an error
// naming it and leaves the delta as it was, so the overlay never holds a
// relation id that wrapped or text Materialize cannot offset.
func TestDeltaBuilderLimits(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", "first")
	for r := 0; r < MaxRels; r++ {
		b.Rel(fmt.Sprintf("r%d", r))
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeltaBuilder(base)
	if r := mustRel(t, d, "r7"); r != 7 {
		t.Fatalf("existing relation r7 = %d", r)
	}
	if _, err := d.Rel("new"); err == nil || !strings.Contains(err.Error(), "limit of 65535 relation types") {
		t.Fatalf("err = %v, want the relation type limit", err)
	}
	if _, ok := d.RelByName("new"); ok || !d.Empty() {
		t.Fatal("a refused relation was interned")
	}

	// Stand the text totals just below the limit instead of allocating it.
	d.labelBytes, d.descBytes = MaxTextBytes-2, MaxTextBytes
	if _, err := d.AddNode("abc", ""); err == nil || !strings.Contains(err.Error(), "label text exceed") {
		t.Fatalf("AddNode err = %v, want the label text limit", err)
	}
	v := mustAddNode(t, d, "ab", "")
	if err := d.SetText(0, "", "first+"); err == nil || !strings.Contains(err.Error(), "description text exceed") {
		t.Fatalf("SetText err = %v, want the description text limit", err)
	}
	// Shrinking one node's text makes room for another's.
	if err := d.SetText(0, "", "f"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetText(v, "ab", "four"); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 2 || d.Label(v) != "ab" || d.Description(0) != "f" {
		t.Fatalf("delta = %d nodes, label %q, desc %q", d.NumNodes(), d.Label(v), d.Description(0))
	}
}
