package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"wikisearch/internal/device"
	"wikisearch/internal/graph"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(10, 3)
	if m.Q() != 3 {
		t.Fatalf("Q = %d", m.Q())
	}
	if m.ByteSize() != 80 { // 10 rows × stride 8 (q=3 padded to a word)
		t.Fatalf("ByteSize = %d", m.ByteSize())
	}
	for v := graph.NodeID(0); v < 10; v++ {
		for j := 0; j < 3; j++ {
			if m.Hit(v, j) {
				t.Fatal("fresh matrix has hits")
			}
		}
	}
	m.Set(4, 1, 7)
	if !m.Hit(4, 1) || m.Get(4, 1) != 7 {
		t.Fatal("Set/Get broken")
	}
	if m.Hit(4, 0) || m.Hit(4, 2) {
		t.Fatal("neighbor columns disturbed")
	}
	if m.AllHit(4) {
		t.Fatal("AllHit with missing columns")
	}
	m.Set(4, 0, 2)
	m.Set(4, 2, 5)
	if !m.AllHit(4) {
		t.Fatal("AllHit false after all columns set")
	}
	mx, ok := m.MaxHit(4)
	if !ok || mx != 7 {
		t.Fatalf("MaxHit = %d,%v", mx, ok)
	}
	if _, ok := m.MaxHit(5); ok {
		t.Fatal("MaxHit true for unhit node")
	}
	row := make([]uint8, 3)
	m.Row(4, row)
	if row[0] != 2 || row[1] != 7 || row[2] != 5 {
		t.Fatalf("Row = %v", row)
	}
}

func TestMatrixQuickRowConsistency(t *testing.T) {
	f := func(vals []byte, qSeed uint8) bool {
		q := int(qSeed%8) + 1
		n := len(vals)/q + 1
		m := NewMatrix(n, q)
		for i, v := range vals {
			m.Set(graph.NodeID(i/q), i%q, v)
		}
		row := make([]uint8, q)
		for v := 0; v < n; v++ {
			m.Row(graph.NodeID(v), row)
			for j := 0; j < q; j++ {
				if row[j] != m.Get(graph.NodeID(v), j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAllMask(t *testing.T) {
	if allMask(1) != 1 || allMask(3) != 7 || allMask(64) != ^uint64(0) {
		t.Fatalf("allMask wrong: %x %x %x", allMask(1), allMask(3), allMask(64))
	}
}

func TestMaxGraphNodesCap(t *testing.T) {
	// A dense bipartite blow-up: many parallel 2-hop paths. With a tiny
	// cap, extraction truncates but must not hang or panic, and the
	// candidate is dropped if coverage is lost.
	b := graph.NewBuilder()
	s0 := b.AddNode("s0", "")
	s1 := b.AddNode("s1", "")
	r := b.Rel("e")
	for i := 0; i < 50; i++ {
		mid := b.AddNode("mid", "")
		b.AddEdge(s0, mid, r)
		b.AddEdge(mid, s1, r)
	}
	g, _ := b.Build()
	in := buildInput(g, nil, nil, []graph.NodeID{s0}, []graph.NodeID{s1})
	res, err := Search(in, Params{TopK: 100, Threads: 1, MaxGraphNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if len(a.Nodes) > 4 {
			t.Fatalf("answer has %d nodes, cap was 4", len(a.Nodes))
		}
		if !a.ContainsAllKeywords(2) {
			t.Fatal("kept answer lost keyword coverage")
		}
	}
}

// TestTruncatedGraphsReported: a capped Central Graph is never returned as
// if complete — every search path counts it in Profile.TruncatedGraphs,
// Profile.Add sums the count, and searches the default
// cap does not touch report zero.
func TestTruncatedGraphsReported(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	var sum Profile
	want := 0
	for seed := int64(500); seed < 520; seed++ {
		in, p := randomScenario(t, seed)
		res, err := ss.Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Profile.TruncatedGraphs; n != 0 {
			t.Fatalf("seed %d: default cap reports %d truncated graphs", seed, n)
		}
		p.MaxGraphNodes = 3
		res, err = ss.Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := SearchDynamic(in, p)
		if err != nil {
			t.Fatal(err)
		}
		if dyn.Profile.TruncatedGraphs != res.Profile.TruncatedGraphs {
			t.Fatalf("seed %d: CPU-Par-d reports %d truncated graphs, CPU-Par %d",
				seed, dyn.Profile.TruncatedGraphs, res.Profile.TruncatedGraphs)
		}
		sum.Add(&res.Profile)
		want += res.Profile.TruncatedGraphs
	}
	if want == 0 {
		t.Fatal("MaxGraphNodes = 3 truncated nothing on 20 random scenarios")
	}
	if sum.TruncatedGraphs != want {
		t.Fatalf("Profile.Add summed %d truncated graphs, want %d", sum.TruncatedGraphs, want)
	}
}

func TestDisableLevelCoverKeepsEverything(t *testing.T) {
	// Fig. 5 scenario: with pruning, decoys vanish; without, they stay.
	b := graph.NewBuilder()
	c := b.AddNode("central", "")
	ju := b.AddNode("ju", "")
	su := b.AddNode("su", "")
	d1 := b.AddNode("d1", "")
	r := b.Rel("e")
	b.AddEdge(ju, c, r)
	b.AddEdge(su, c, r)
	b.AddEdge(d1, c, r)
	g, _ := b.Build()
	sources := [][]graph.NodeID{{su}, {ju, d1}, {ju}}
	in := buildInput(g, nil, nil, sources...)

	pruned, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Search(in, Params{TopK: 1, Threads: 1, DisableLevelCover: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Answers) != 1 || len(kept.Answers) != 1 {
		t.Fatal("missing answers")
	}
	if pruned.Answers[0].PrunedNodes != 1 {
		t.Fatalf("pruned = %d, want 1 (the decoy)", pruned.Answers[0].PrunedNodes)
	}
	if kept.Answers[0].PrunedNodes != 0 {
		t.Fatal("ablated run still pruned")
	}
	if len(kept.Answers[0].Nodes) != len(pruned.Answers[0].Nodes)+1 {
		t.Fatalf("node counts %d vs %d", len(kept.Answers[0].Nodes), len(pruned.Answers[0].Nodes))
	}
}

func TestSearchCancellation(t *testing.T) {
	in, p := randomScenario(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	if _, err := Search(in, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search with cancelled ctx: err = %v", err)
	}
	if _, err := SearchDynamic(in, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchDynamic with cancelled ctx: err = %v", err)
	}
	if _, err := SearchGPU(in, p, device.GTX1080Ti()); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchGPU with cancelled ctx: err = %v", err)
	}
	// A live context changes nothing.
	p.Ctx = context.Background()
	if _, err := Search(in, p); err != nil {
		t.Fatalf("Search with live ctx: %v", err)
	}
}

func TestVariantsEquivalentWithoutLevelCover(t *testing.T) {
	for seed := int64(400); seed < 415; seed++ {
		in, p := randomScenario(t, seed)
		p.DisableLevelCover = true
		ref, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		pp := p
		pp.Threads = 4
		par, err := Search(in, pp)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "no-levelcover CPU-Par", ref, par)
		dyn, err := SearchDynamic(in, pp)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "no-levelcover CPU-Par-d", ref, dyn)
	}
}

// checkKeywordMasks asserts that the finished bottom-up stage in s reports,
// for every node, exactly the keywords its source lists give it: the
// matrix's zero cells, and the view stage two reads.
func checkKeywordMasks(t *testing.T, label string, s *state) {
	t.Helper()
	contains := sourceContains(s.in)
	for v := range contains {
		id := graph.NodeID(v)
		if got := s.m.KeywordMask(id); got != contains[v] {
			t.Fatalf("%s: node %d keyword mask %#x, sources %#x", label, v, got, contains[v])
		}
		qc := s.queryOf()
		if got := qc.src.keywords(&qc, id); got != contains[v] {
			t.Fatalf("%s: node %d stage-two keywords %#x, sources %#x", label, v, got, contains[v])
		}
	}
}

// TestKeywordMaskMatchesSources: the containment the kernel and stage two
// derive from the matrix's zero cells equals T_i membership — after searches
// with one- and two-word rows, and after the GPU path's device-side
// initialization.
func TestKeywordMaskMatchesSources(t *testing.T) {
	pool := newSearchPool(2)
	defer pool.Close()
	for seed := int64(600); seed < 630; seed++ {
		in, p := randomScenario(t, seed)
		p = p.Defaults()
		s := newState(in, p, pool)
		if _, err := s.bottomUp(); err != nil {
			t.Fatal(err)
		}
		checkKeywordMasks(t, fmt.Sprintf("seed %d solo", seed), s)

		gs := newGPUState(in, p, pool, device.GTX1080Ti())
		if _, err := gs.bottomUpGPU(); err != nil {
			t.Fatal(err)
		}
		checkKeywordMasks(t, fmt.Sprintf("seed %d GPU", seed), gs.state)

		win, wp := wideScenario(t, seed)
		ws := newState(win, wp.Defaults(), pool)
		if _, err := ws.bottomUp(); err != nil {
			t.Fatal(err)
		}
		checkKeywordMasks(t, fmt.Sprintf("seed %d wide", seed), ws)
	}
}
