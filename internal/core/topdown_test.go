package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// footprint counts the scratch entries the extraction now in sc addressed:
// its id-table window plus every per-node and per-edge array element it
// wrote or cleared. It is what a retained scratch can tax an extraction by.
func (sc *tdScratch) footprint() int {
	return int(sc.mask) + 1 + len(sc.ids) + len(sc.has) + len(sc.onPaths) + len(sc.edges) +
		len(sc.keep) + len(sc.kws) + len(sc.childOff) + len(sc.child)
}

// TestTopDownScratchOnlyPaysForItself: after an extraction that fills
// MaxGraphNodes, the same scratch extracts and scores a small Central Graph
// touching exactly the entries a fresh scratch would — O(small), counted,
// not timed — while its capacity stays at the giant's size.
func TestTopDownScratchOnlyPaysForItself(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()

	var used tdScratch
	gin, gp := giantScenario(t)
	gp = gp.Defaults()
	gs := newState(gin, gp, pool)
	if _, err := runBottomUp(gs, gp); err != nil {
		t.Fatal(err)
	}
	gq := gs.queryOf()
	giant := 0
	for _, vc := range gs.gr.centrals {
		gs.extract(&used, &gq, vc)
		giant = max(giant, len(used.ids))
	}
	if giant != gq.maxNodes || !used.truncated {
		t.Fatalf("giant extraction has %d nodes (truncated=%v), want the %d-node cap", giant, used.truncated, gq.maxNodes)
	}
	giantSlots := len(used.slots)

	checked := 0
	for seed := int64(500); seed < 510; seed++ {
		in, p := randomScenario(t, seed)
		p = p.Defaults()
		s := newState(in, p, pool)
		if _, err := runBottomUp(s, p); err != nil {
			t.Fatal(err)
		}
		qc := s.queryOf()
		for _, vc := range s.gr.centrals {
			var fresh tdScratch
			var rec, freshRec tdRecord
			used.score(&qc, &rec, s.extract(&used, &qc, vc))
			fresh.score(&qc, &freshRec, s.extract(&fresh, &qc, vc))
			n := len(used.ids)
			if got, want := used.footprint(), fresh.footprint(); got != want {
				t.Fatalf("seed %d central %d: %d-node extraction touches %d scratch entries after a giant one, %d on a fresh scratch",
					seed, vc, n, got, want)
			}
			if got, bound := used.footprint(), tdMinSlots+8*(n+len(used.edges)+1); got > bound {
				t.Fatalf("seed %d central %d: %d nodes, %d edges touch %d entries, want ≤ %d", seed, vc, n, len(used.edges), got, bound)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no small extraction checked")
	}
	if len(used.slots) != giantSlots {
		t.Fatalf("id table resized from %d to %d slots by small extractions", giantSlots, len(used.slots))
	}
}

// TestTopDownRunEndsWithoutPinningArenas: between searches a pooled state
// keeps an ordinary arena, record table and selection order for reuse, lets
// outsized ones go, and holds no record that still points into an arena.
func TestTopDownRunEndsWithoutPinningArenas(t *testing.T) {
	var r tdRun
	r.td = make([]tdScratch, 2)
	r.td[0].arena = make([]graph.NodeID, 8, tdArenaKeep)
	r.td[1].arena = make([]graph.NodeID, 8, tdArenaKeep+1)
	r.recs = make([]tdRecord, 2, tdRecordsKeep)
	r.recs[0].ids, r.recs[1].ids = r.td[0].arena[:4], r.td[1].arena[4:8]
	r.order = make([]int32, 2, tdRecordsKeep)
	r.end()
	if cap(r.td[0].arena) != tdArenaKeep {
		t.Fatalf("ordinary arena not retained: cap %d", cap(r.td[0].arena))
	}
	if r.td[1].arena != nil {
		t.Fatalf("outsized arena (cap %d) retained", cap(r.td[1].arena))
	}
	if cap(r.recs) != tdRecordsKeep || cap(r.order) != tdRecordsKeep {
		t.Fatalf("ordinary tables not retained: recs cap %d, order cap %d", cap(r.recs), cap(r.order))
	}
	for i := range r.recs {
		if r.recs[i].ids != nil {
			t.Fatalf("record %d still aliases an arena", i)
		}
	}

	// A one-keyword query with tens of thousands of centrals.
	r.recs = make([]tdRecord, 20000, 30000)
	r.order = make([]int32, 0, 30000)
	r.end()
	if r.recs != nil || r.order != nil {
		t.Fatalf("outsized tables retained: recs cap %d, order cap %d", cap(r.recs), cap(r.order))
	}
}

// topDownAllocsPerAnswer is the stated constant c of the allocation guard:
// a warm top-down stage allocates at most c·k objects. An Answer costs four
// (the struct, its nodes, their hitting-level rows, its edges); the rest is
// the result slice and the assembly loop's method value.
const topDownAllocsPerAnswer = 5

// TestTopDownScoringAllocationFree: on a warm state the scoring pass over
// every Central Graph allocates nothing — also on two-word matrix rows,
// when the MaxGraphNodes cap truncates extractions, with level-cover
// ablated, across the id table's generation wrap and once the query is
// cancelled — and a whole top-down stage allocates for the ≤ k answers it
// returns, the same bound at 47 and at 1577 candidates.
func TestTopDownScoringAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	sized := func(perKeyword int, tweak func(*Params)) func(testing.TB) (Input, Params) {
		return func(tb testing.TB) (Input, Params) {
			in, p := benchScenarioSized(tb, perKeyword)
			tweak(&p)
			return in, p
		}
	}
	// answers is what the stage returns: k, or fewer where the cap
	// truncates Central Graphs until they no longer cover every keyword.
	cases := []struct {
		name    string
		build   func(testing.TB) (Input, Params)
		answers int
	}{
		{"sources=3", sized(3, func(*Params) {}), 20},
		{"sources=8", sized(8, func(*Params) {}), 20},
		{"sources=8/capped", sized(8, func(p *Params) { p.MaxGraphNodes = 12 }), 17},
		{"sources=8/no-level-cover", sized(8, func(p *Params) { p.DisableLevelCover = true }), 20},
		// Its one Central Graph outgrows the id table's first window.
		{"giant", giantScenario, 0},
		// Ten or more keywords (two-word matrix rows), and parents that
		// were Central Nodes too early to have expanded.
		{"wide", func(tb testing.TB) (Input, Params) { return wideScenario(tb, 3) }, 7},
		// A published delta: every 8th node's adjacency read from the overlay.
		{"sources=3/overlay", func(tb testing.TB) (Input, Params) {
			in, p := benchScenarioSized(tb, 3)
			d := graph.NewDeltaBuilder(in.G)
			r, err := d.Rel("a")
			if err != nil {
				tb.Fatal(err)
			}
			for v := 0; v < in.G.NumNodes(); v += 8 {
				dst, rel := in.G.OutEdges(graph.NodeID(v))
				if len(dst) > 0 {
					if err := d.RemoveEdge(graph.NodeID(v), dst[0], rel[0]); err != nil {
						tb.Fatal(err)
					}
				}
				if err := d.AddEdge(graph.NodeID(v), graph.NodeID((v*7+1)%in.G.NumNodes()), r); err != nil {
					tb.Fatal(err)
				}
			}
			in.G = d.Overlay()
			return in, p
		}, 20},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		for _, tn := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, tn), func(t *testing.T) {
				in, p := c.build(t)
				p.Threads = tn
				ss := NewSearchState()
				defer ss.Close()
				ss.SetTracing(true)
				if _, err := ss.BottomUp(in, p); err != nil {
					t.Fatal(err)
				}
				s := &ss.st
				gr := &s.gr
				for i := 0; i < 3; i++ { // warm scratch, records and arenas
					if _, _, err := s.topDown(); err != nil {
						t.Fatal(err)
					}
				}

				s.tdr.qc = s.queryOf()
				s.tdr.begin(s.pool, gr.centrals)
				// Scheduling is dynamic, so a worker's scratch is only warm
				// for every schedule once it has seen every Central Graph.
				for w := range s.tdr.td {
					for i := range gr.centrals {
						s.tdr.scoreOne(w, i)
					}
				}
				passes := []struct {
					name  string
					setup func()
				}{
					{"scoring pass", func() {}},
					{"scoring pass across the generation wrap", func() {
						for w := range s.tdr.td {
							s.tdr.td[w].gen = math.MaxUint32
						}
					}},
					{"cancelled scoring pass", func() { s.tdr.qc.ctx = cancelled }},
				}
				for _, ps := range passes {
					allocs := testing.AllocsPerRun(10, func() {
						ps.setup()
						s.tdr.scoreAll(s.pool)
					})
					if allocs != 0 {
						t.Fatalf("warm %s over %d centrals allocates %.1f times, want 0", ps.name, len(gr.centrals), allocs)
					}
				}
				s.tdr.end()

				var answers []*Answer
				allocs := testing.AllocsPerRun(10, func() { answers, _, _ = s.topDown() })
				if len(answers) != c.answers {
					t.Fatalf("%d answers from %d centrals, want %d", len(answers), len(gr.centrals), c.answers)
				}
				if bound := float64(topDownAllocsPerAnswer * p.TopK); allocs > bound {
					t.Fatalf("warm top-down over %d centrals allocates %.1f times, want ≤ %d·k = %.0f",
						len(gr.centrals), allocs, topDownAllocsPerAnswer, bound)
				}
				t.Logf("%d centrals: scoring 0 allocs, top-down %.0f allocs for k = %d", len(gr.centrals), allocs, p.TopK)
			})
		}
	}
}
