package weight

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

func pool() *parallel.Pool { return parallel.NewPool(2) }

func TestRawEquation2(t *testing.T) {
	// Node 0 receives: 3 edges labeled "a", 1 edge labeled "b".
	// w = (3·log2(4) + 1·log2(2)) / 4 = (6 + 1)/4 = 1.75.
	b := graph.NewBuilder()
	target := b.AddNode("target", "")
	for i := 0; i < 4; i++ {
		b.AddNode("src", "")
	}
	ra, rb := b.Rel("a"), b.Rel("b")
	b.AddEdge(1, target, ra)
	b.AddEdge(2, target, ra)
	b.AddEdge(3, target, ra)
	b.AddEdge(4, target, rb)
	g, _ := b.Build()
	w := Raw(g, pool())
	if math.Abs(w[target]-1.75) > 1e-12 {
		t.Fatalf("w[target] = %v, want 1.75", w[target])
	}
	// Source nodes have no in-edges.
	for i := 1; i <= 4; i++ {
		if w[i] != 0 {
			t.Fatalf("w[%d] = %v, want 0", i, w[i])
		}
	}
}

func TestRawSummaryNodeRanksHighest(t *testing.T) {
	// A "human"-like node with many same-labeled in-edges must out-weigh a
	// node with the same in-degree but diverse labels (the diversity
	// discount of §IV-A).
	b := graph.NewBuilder()
	summary := b.AddNode("human", "")
	diverse := b.AddNode("hub", "")
	for i := 0; i < 20; i++ {
		s := b.AddNode("x", "")
		b.AddEdgeNamed(s, summary, "instance of")
		b.AddEdgeNamed(s, diverse, "rel"+string(rune('a'+i)))
	}
	g, _ := b.Build()
	w := Raw(g, pool())
	if w[summary] <= w[diverse] {
		t.Fatalf("summary weight %v <= diverse weight %v", w[summary], w[diverse])
	}
	if math.Abs(w[diverse]-1.0) > 1e-12 { // 20 labels × 1 edge: log2(2)=1 each
		t.Fatalf("w[diverse] = %v, want 1.0", w[diverse])
	}
}

func TestNormalize(t *testing.T) {
	w := []float64{2, 4, 6}
	Normalize(w)
	want := []float64{0, 0.5, 1}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize = %v, want %v", w, want)
		}
	}
	// Constant vector → all zeros.
	c := []float64{3, 3, 3}
	Normalize(c)
	for _, x := range c {
		if x != 0 {
			t.Fatalf("constant Normalize = %v", c)
		}
	}
	Normalize(nil) // must not panic
}

func TestNormalizeQuickBounds(t *testing.T) {
	f := func(in []float64) bool {
		// Eq. 2 weights are finite non-negatives bounded by log2(1+indeg);
		// fold arbitrary floats into that realistic range.
		w := make([]float64, 0, len(in))
		for _, x := range in {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				w = append(w, math.Mod(math.Abs(x), 64))
			}
		}
		Normalize(w)
		for _, x := range w {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelEquation345(t *testing.T) {
	const A = 3.68 // wiki2018's sampled average distance (Table II)
	cases := []struct {
		w, alpha float64
		want     int
	}{
		{0.1, 0.1, 4},  // w = α → round(A) = round(3.68)
		{0.0, 0.1, 0},  // full reward: A - A = 0
		{1.0, 0.1, 8},  // full penalty: A + A = 7.36 → 7? round(7.36)=7... see below
		{0.05, 0.1, 2}, // reward = 3.68·0.5 = 1.84 → 3.68-1.84 = 1.84 → 2
	}
	// Full penalty: A + A·(1-α)/(1-α) = 2A = 7.36 → rounds to 7.
	cases[2].want = 7
	for _, c := range cases {
		if got := Level(c.w, A, c.alpha); got != c.want {
			t.Errorf("Level(w=%v, α=%v) = %d, want %d", c.w, c.alpha, got, c.want)
		}
	}
}

func TestLevelMonotoneInWeight(t *testing.T) {
	f := func(a, b float64, alphaSeed float64) bool {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			x -= math.Floor(x)
			return x
		}
		w1, w2 := clamp(a), clamp(b)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		alpha := 0.05 + 0.9*clamp(alphaSeed)
		return Level(w1, 3.7, alpha) <= Level(w2, 3.7, alpha)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelLargerAlphaNeverRaises(t *testing.T) {
	// §IV-C: a larger α maps more nodes to smaller activation levels; for
	// any fixed weight, raising α must not raise the level.
	f := func(wSeed, a1Seed, a2Seed float64) bool {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			x -= math.Floor(x)
			return x
		}
		w := clamp(wSeed)
		a1 := 0.05 + 0.9*clamp(a1Seed)
		a2 := 0.05 + 0.9*clamp(a2Seed)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		return Level(w, 3.7, a2) <= Level(w, 3.7, a1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelClamped(t *testing.T) {
	if got := Level(1.0, 1000, 0.5); got != MaxLevel {
		t.Fatalf("Level = %d, want clamp at %d", got, MaxLevel)
	}
	if got := Level(0, 0.1, 0.5); got != 0 {
		t.Fatalf("Level = %d, want 0", got)
	}
}

func TestLevelsAndDistribution(t *testing.T) {
	w := []float64{0, 0.05, 0.1, 0.5, 1.0}
	levels := Levels(w, 3.68, 0.1, pool())
	if len(levels) != len(w) {
		t.Fatal("Levels length mismatch")
	}
	for i, x := range w {
		if int(levels[i]) != Level(x, 3.68, 0.1) {
			t.Fatalf("Levels[%d] = %d, want %d", i, levels[i], Level(x, 3.68, 0.1))
		}
	}
	dist := Distribution(levels, 5) // buckets 0,1,2,3,≥4
	total := 0
	for _, c := range dist {
		total += c
	}
	if total != len(w) {
		t.Fatalf("Distribution total = %d, want %d", total, len(w))
	}
	// w=1.0 maps to round(2·3.68)=7 → lands in the ≥4 bucket.
	if dist[4] == 0 {
		t.Fatal("≥4 bucket empty, expected the full-penalty node there")
	}
}

// TestRawNodesOverlayMatchesRaw pins the incremental weight step live
// mutation relies on: after edges are added and removed through a graph
// overlay, recomputing Raw only at the edges' targets reproduces a full
// Raw of the overlaid graph bit for bit, and so does normalizing it.
func TestRawNodesOverlayMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder()
	const n = 40
	for i := 0; i < n; i++ {
		b.AddNode("x", "")
	}
	rels := []graph.RelID{b.Rel("a"), b.Rel("b"), b.Rel("c")}
	type edge struct {
		from, to graph.NodeID
		rel      graph.RelID
	}
	var edges []edge
	for i := 0; i < 4*n; i++ {
		e := edge{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rels[rng.Intn(len(rels))]}
		b.AddEdge(e.from, e.to, e.rel)
		edges = append(edges, e)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw := Raw(base, pool())
	d := graph.NewDeltaBuilder(base)
	var dirty []graph.NodeID
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			k := rng.Intn(len(edges))
			e := edges[k]
			if err := d.RemoveEdge(e.from, e.to, e.rel); err != nil {
				t.Fatal(err)
			}
			edges = append(edges[:k], edges[k+1:]...)
			dirty = append(dirty, e.to)
			continue
		}
		e := edge{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rels[rng.Intn(len(rels))]}
		if err := d.AddEdge(e.from, e.to, e.rel); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
		dirty = append(dirty, e.to)
	}
	g := d.Overlay()
	RawNodes(g, raw, dirty)
	want := Raw(g, pool())
	for v := range want {
		if raw[v] != want[v] {
			t.Fatalf("raw[%d] = %v after RawNodes, full Raw %v", v, raw[v], want[v])
		}
	}
	mn, mx := Bounds(raw)
	Normalize(want)
	for v := range want {
		if got := Scale(raw[v], mn, mx); got != want[v] {
			t.Fatalf("Scale(raw[%d]) = %v, Normalize %v", v, got, want[v])
		}
	}
}
