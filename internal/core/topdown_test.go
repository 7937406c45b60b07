package core

import (
	"fmt"
	"testing"

	"wikisearch/internal/graph"
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
	pool := newSearchPool(1)
	defer pool.Close()

	var used tdScratch
	gin, gp := giantScenario(t)
	gs := newState(gin, gp.Defaults(), pool)
	if _, err := gs.bottomUp(); err != nil {
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
		s := newState(in, p.Defaults(), pool)
		if _, err := s.bottomUp(); err != nil {
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
// every Central Graph allocates nothing, and a whole top-down stage
// allocates for the ≤ k answers it returns — the same bound at 47 and at
// 1577 candidates.
func TestTopDownScoringAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, perKeyword := range []int{3, 8} {
		for _, tn := range []int{1, 4} {
			t.Run(fmt.Sprintf("sources=%d/threads=%d", perKeyword, tn), func(t *testing.T) {
				in, p := benchScenarioSized(t, perKeyword)
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
					if _, err := s.topDown(); err != nil {
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
				allocs := testing.AllocsPerRun(10, func() { s.tdr.scoreAll(s.pool) })
				s.tdr.end()
				if allocs != 0 {
					t.Fatalf("warm scoring pass over %d centrals allocates %.1f times, want 0", len(gr.centrals), allocs)
				}

				var answers []*Answer
				allocs = testing.AllocsPerRun(10, func() { answers, _ = s.topDown() })
				if len(answers) != p.TopK {
					t.Fatalf("%d answers from %d centrals, want k = %d", len(answers), len(gr.centrals), p.TopK)
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
