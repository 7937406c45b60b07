package core

import (
	"math"
	"testing"

	"wikisearch/internal/graph"
)

// buildInput assembles an Input with explicit activation levels (bypassing
// the weight pipeline) so tests control search behavior exactly.
func buildInput(g *graph.Graph, levels []uint8, weights []float64, sources ...[]graph.NodeID) Input {
	n := g.NumNodes()
	if levels == nil {
		levels = make([]uint8, n)
	}
	if weights == nil {
		weights = make([]float64, n)
	}
	terms := make([]string, len(sources))
	for i := range terms {
		terms[i] = "t" + string(rune('0'+i))
	}
	return Input{G: g, Weights: weights, Levels: levels, Terms: terms, Sources: sources}
}

// fig2Graph builds the graph of the paper's Fig. 2: v0–v3, v1–v3, v1–v4,
// v2–v4, v3–v4 (undirected semantics via bi-directed traversal).
func fig2Graph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode("v", "")
	}
	r := b.Rel("e")
	b.AddEdge(0, 3, r)
	b.AddEdge(1, 3, r)
	b.AddEdge(1, 4, r)
	b.AddEdge(2, 4, r)
	b.AddEdge(3, 4, r)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFig2HittingLevels(t *testing.T) {
	// Example 1: B0 from {v0}, B1 from {v1, v2}. With k forcing a full run,
	// h¹₁ = h¹₂ = 0, h¹₃ = h¹₄ = 1.
	g := fig2Graph(t)
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1, 2})
	p := Params{TopK: 100, Threads: 1}.Defaults()
	pool := newSearchPool(1)
	s := newState(in, p, pool)
	s.bottomUp()
	check := func(v graph.NodeID, j int, want uint8) {
		t.Helper()
		if got := s.m.Get(v, j); got != want {
			t.Errorf("h^%d(v%d) = %d, want %d", j, v, got, want)
		}
	}
	check(1, 1, 0)
	check(2, 1, 0)
	check(3, 1, 1)
	check(4, 1, 1)
	check(0, 0, 0)
	check(3, 0, 1)
}

func TestFig2CentralNodeV3(t *testing.T) {
	// Example 3: the Central Graph at v3 has depth 1 and covers hitting
	// paths v0→v3 and v1→v3.
	g := fig2Graph(t)
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1, 2})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DepthD != 1 {
		t.Fatalf("d = %d, want 1", res.DepthD)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(res.Answers))
	}
	a := res.Answers[0]
	if a.Central != 3 || a.Depth != 1 {
		t.Fatalf("central = v%d depth %d, want v3 depth 1", a.Central, a.Depth)
	}
	ids := map[graph.NodeID]bool{}
	for _, n := range a.Nodes {
		ids[n.ID] = true
	}
	if !ids[0] || !ids[1] || !ids[3] {
		t.Fatalf("answer nodes = %v, want {v0,v1,v3}", a.NodeIDs())
	}
	if ids[4] || ids[2] {
		t.Fatalf("answer contains nodes off the hitting paths: %v", a.NodeIDs())
	}
	if !a.ContainsAllKeywords(2) {
		t.Fatal("answer does not cover all keywords")
	}
}

func TestFig2CentralNodeV4MultiPath(t *testing.T) {
	// Removing v1–v3 makes v4 the sole depth-2 central with multi-paths
	// v1→v4 and v2→v4 from keyword 1 plus v0→v3→v4 from keyword 0.
	b := graph.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode("v", "")
	}
	r := b.Rel("e")
	b.AddEdge(0, 3, r)
	b.AddEdge(1, 4, r)
	b.AddEdge(2, 4, r)
	b.AddEdge(3, 4, r)
	g, _ := b.Build()
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1, 2})
	// Both v3 (m=[1,2]) and v4 (m=[2,1]) become central at level 2.
	res, err := Search(in, Params{TopK: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	var a *Answer
	for _, cand := range res.Answers {
		if cand.Central == 4 {
			a = cand
		}
	}
	if a == nil || a.Depth != 2 {
		t.Fatalf("no depth-2 answer centered at v4 in %v", res.Answers)
	}
	// Multi-path: both v1 and v2 (same keyword) present.
	ids := map[graph.NodeID]bool{}
	for _, n := range a.Nodes {
		ids[n.ID] = true
	}
	for _, want := range []graph.NodeID{0, 1, 2, 3, 4} {
		if !ids[want] {
			t.Fatalf("missing node v%d in %v", want, a.NodeIDs())
		}
	}
	// Hitting-path edges: v1→v4 and v2→v4 both present (multi-path).
	var intoCentral int
	for _, e := range a.Edges {
		if e.To == 4 && (e.From == 1 || e.From == 2) {
			intoCentral++
		}
	}
	if intoCentral != 2 {
		t.Fatalf("multi-path edges into central = %d, want 2", intoCentral)
	}
}

func TestActivationDelaysHit(t *testing.T) {
	// §IV-B: a non-keyword node with activation a cannot be hit before
	// level a; the frontier is retained and retries.
	// Path: s0 — mid — s1 with a(mid) = 3.
	b := graph.NewBuilder()
	b.AddNode("s0", "")
	b.AddNode("mid", "")
	b.AddNode("s1", "")
	r := b.Rel("e")
	b.AddEdge(0, 1, r)
	b.AddEdge(1, 2, r)
	g, _ := b.Build()
	levels := []uint8{0, 3, 0}
	in := buildInput(g, levels, nil, []graph.NodeID{0}, []graph.NodeID{2})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(res.Answers))
	}
	a := res.Answers[0]
	if a.Central != 1 {
		t.Fatalf("central = v%d, want mid", a.Central)
	}
	// mid is hit no earlier than its activation level.
	for _, n := range a.Nodes {
		if n.ID != 1 {
			continue
		}
		for j, h := range n.HitLevels {
			if h != Infinity && int(h) < 3 {
				t.Fatalf("mid hit at level %d for keyword %d, before activation 3", h, j)
			}
		}
	}
	if a.Depth < 3 {
		t.Fatalf("depth %d < activation 3", a.Depth)
	}
}

func TestKeywordNodeHitWithoutActivation(t *testing.T) {
	// §IV-B compromise: keyword nodes are hit regardless of activation but
	// expand only once the level reaches their activation.
	// s0 — kw(activation 5) — s1; kw contains keyword 1 = {kw, s1}? Use
	// three keywords to force paths through kw.
	b := graph.NewBuilder()
	b.AddNode("s0", "")
	b.AddNode("kw", "") // keyword node with high activation
	b.AddNode("s1", "")
	r := b.Rel("e")
	b.AddEdge(0, 1, r)
	b.AddEdge(1, 2, r)
	g, _ := b.Build()
	levels := []uint8{0, 5, 0}
	in := buildInput(g, levels, nil, []graph.NodeID{0}, []graph.NodeID{1}, []graph.NodeID{2})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	a := res.Answers[0]
	if a.Central != 1 {
		t.Fatalf("central = v%d, want kw", a.Central)
	}
	// kw is hit by keywords 0 and 2 at level 1, despite activation 5 —
	// being a keyword node, hitting is unrestricted.
	for _, n := range a.Nodes {
		if n.ID != 1 {
			continue
		}
		if n.HitLevels[0] != 1 || n.HitLevels[2] != 1 {
			t.Fatalf("kw hit levels = %v, want keyword 0 and 2 at level 1", n.HitLevels)
		}
	}
	// But its expansion is delayed: s0 can only be hit by keyword 2 (via
	// kw) at level ≥ 6.
	if a.Depth != 1 {
		t.Fatalf("depth = %d, want 1 (kw itself is the central)", a.Depth)
	}
}

func TestCentralUnavailableForExpansion(t *testing.T) {
	// Once v3 is central it stops expanding: with k=2 on the Fig. 2 graph,
	// B0 can never reach v4 (its only route is through v3), so only one
	// central exists.
	g := fig2Graph(t)
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1, 2})
	res, err := Search(in, Params{TopK: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CentralCandidates != 1 {
		t.Fatalf("central candidates = %d, want 1 (v3 blocks the path)", res.CentralCandidates)
	}
	if len(res.Answers) != 1 || res.Answers[0].Central != 3 {
		t.Fatalf("answers = %v", res.Answers)
	}
}

func TestSourceNodeContainingAllKeywordsIsDepthZeroCentral(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("all", "")
	b.AddNode("other", "")
	b.AddEdgeNamed(0, 1, "e")
	g, _ := b.Build()
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{0, 1})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DepthD != 0 {
		t.Fatalf("d = %d, want 0", res.DepthD)
	}
	a := res.Answers[0]
	if a.Central != 0 || a.Depth != 0 || len(a.Nodes) != 1 {
		t.Fatalf("answer = central v%d depth %d nodes %v", a.Central, a.Depth, a.NodeIDs())
	}
	if a.Score != 0 {
		t.Fatalf("depth-0 score = %v, want 0 (d^λ = 0)", a.Score)
	}
}

func TestNoAnswersOnDisconnectedKeywords(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a", "")
	b.AddNode("b", "")
	g, _ := b.Build()
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1})
	res, err := Search(in, Params{TopK: 5, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 || res.CentralCandidates != 0 {
		t.Fatalf("expected no answers, got %d (%d candidates)", len(res.Answers), res.CentralCandidates)
	}
}

func TestValidateErrors(t *testing.T) {
	g := fig2Graph(t)
	cases := []struct {
		name string
		in   Input
	}{
		{"nil graph", Input{}},
		{"no keywords", buildInput(g, nil, nil)},
		{"empty source set", buildInput(g, nil, nil, []graph.NodeID{})},
		{"out of range source", buildInput(g, nil, nil, []graph.NodeID{99})},
		{"bad weights", Input{G: g, Weights: []float64{1}, Levels: make([]uint8, 5), Terms: []string{"x"}, Sources: [][]graph.NodeID{{0}}}},
	}
	for _, c := range cases {
		if _, err := Search(c.in, Params{}); err == nil {
			t.Errorf("%s: Search accepted invalid input", c.name)
		}
		if _, err := SearchDynamic(c.in, Params{}); err == nil {
			t.Errorf("%s: SearchDynamic accepted invalid input", c.name)
		}
	}
	// Too many keywords.
	many := make([][]graph.NodeID, MaxKeywords+1)
	for i := range many {
		many[i] = []graph.NodeID{0}
	}
	in := buildInput(g, nil, nil, many...)
	if _, err := Search(in, Params{}); err == nil {
		t.Error("Search accepted > MaxKeywords keywords")
	}
}

func TestMaxLevelBoundsSearch(t *testing.T) {
	// A long path with k unreachable within MaxLevel terminates at MaxLevel.
	b := graph.NewBuilder()
	const n = 50
	for i := 0; i < n; i++ {
		b.AddNode("v", "")
	}
	r := b.Rel("e")
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), r)
	}
	g, _ := b.Build()
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{n - 1})
	res, err := Search(in, Params{TopK: 1, Threads: 1, MaxLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("found answers within MaxLevel=5 on a 50-path: %v", res.Answers)
	}
	if res.DepthD > 5 {
		t.Fatalf("search ran to level %d, beyond MaxLevel", res.DepthD)
	}
}

func TestScoreEquation6(t *testing.T) {
	if got := Score(4, 2.5, 0.2); math.Abs(got-math.Pow(4, 0.2)*2.5) > 1e-12 {
		t.Fatalf("Score = %v", got)
	}
	if Score(0, 5, 0.2) != 0 {
		t.Fatal("Score(0, ·) must be 0")
	}
	// λ=0 ignores depth.
	if Score(7, 3, 0) != 3 {
		t.Fatal("λ=0 must ignore depth")
	}
}

func TestScoringPrefersInformativeNodes(t *testing.T) {
	// Two parallel 2-hop routes between the keyword endpoints; the route
	// through the low-weight (informative) middle node must rank first.
	b := graph.NewBuilder()
	b.AddNode("s0", "")      // 0
	b.AddNode("summary", "") // 1: heavy
	b.AddNode("info", "")    // 2: light
	b.AddNode("s1", "")      // 3
	r := b.Rel("e")
	b.AddEdge(0, 1, r)
	b.AddEdge(1, 3, r)
	b.AddEdge(0, 2, r)
	b.AddEdge(2, 3, r)
	g, _ := b.Build()
	weights := []float64{0, 0.875, 0.125, 0}
	in := buildInput(g, nil, weights, []graph.NodeID{0}, []graph.NodeID{3})
	res, err := Search(in, Params{TopK: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if res.Answers[0].Central != 2 || res.Answers[1].Central != 1 {
		t.Fatalf("ranking = [v%d, v%d], want [info, summary]", res.Answers[0].Central, res.Answers[1].Central)
	}
	if res.Answers[0].Score >= res.Answers[1].Score {
		t.Fatal("scores not ascending")
	}
}

func TestProfilePhasesPopulated(t *testing.T) {
	g := fig2Graph(t)
	in := buildInput(g, nil, nil, []graph.NodeID{0}, []graph.NodeID{1, 2})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Levels == 0 || res.Profile.FrontierTotal == 0 {
		t.Fatalf("profile counters empty: %+v", res.Profile)
	}
	if res.Profile.Total() <= 0 {
		t.Fatal("total time not positive")
	}
	// Phase names for the harness: the paper's five and no others.
	want := []string{"Initialization", "Enqueuing Frontiers", "Identifying Central Nodes", "Expansion", "Top-down Processing"}
	if len(res.Profile.Phases) != len(want) {
		t.Fatalf("profile has %d phases, want %d", len(res.Profile.Phases), len(want))
	}
	for i, w := range want {
		if Phase(i).String() != w {
			t.Errorf("Phase(%d) = %q, want %q", i, Phase(i), w)
		}
	}
}
