package core

import (
	"testing"

	"wikisearch/internal/device"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// newState returns a CPU-Par state bound to a query on pool; the driver's
// Initialization step prepares it.
func newState(in Input, p Params, pool *parallel.Pool) *state {
	return &state{in: in, p: p, pool: pool}
}

// runBottomUp runs Initialization and stage one over st, as a search with
// p does, and returns d.
func runBottomUp(st steps, p Params) (int, error) {
	dr := driver{p: p}
	return dr.bottomUp(st)
}

// frontierView exposes a variant's frontier queue to the invariant checks:
// hitBy reports whether v holds a hit at or below level l in some column,
// central whether v is a Central Node already.
func frontierView(st steps) (frontier []int32, hitBy func(v graph.NodeID, l int) bool, central func(v graph.NodeID) bool) {
	var s *state
	switch st := st.(type) {
	case *dynState:
		return st.frontier, func(v graph.NodeID, l int) bool {
				for i := range st.in.Sources {
					if h, ok := st.hitLevel(v, i); ok && int(h) <= l {
						return true
					}
				}
				return false
			}, func(v graph.NodeID) bool {
				return st.centralAt[v] >= 0
			}
	case *gpuState:
		s = st.state
	case *state:
		s = st
	}
	row := make([]uint8, MaxKeywords)
	return s.frontier, func(v graph.NodeID, l int) bool {
			s.m.Row(v, row[:s.m.Q()])
			for _, h := range row[:s.m.Q()] {
				if int(h) <= l {
					return true
				}
			}
			return false
		}, func(v graph.NodeID) bool {
			return s.gr.centralAt[v] != notCentral
		}
}

// TestFrontierInvariant drives each variant's steps level by level, in the
// driver's order, over TestModelCrossCheck's scenarios, and checks after
// every enqueue what lets the kernels skip two tests per frontier entry:
// every entry holds a hit at or below the level in some column (so an
// expanding entry has an active column), and no entry is central (so
// identification need not re-check one). Each scenario runs with its own k
// and with a k that never stops the search, so Central Nodes found at early
// levels meet many later frontiers.
func TestFrontierInvariant(t *testing.T) {
	variants := []struct {
		name string
		mk   func(in Input, p Params, pool *parallel.Pool) steps
	}{
		{"CPU-Par", func(in Input, p Params, pool *parallel.Pool) steps { return newState(in, p, pool) }},
		{"CPU-Par-d", func(in Input, p Params, pool *parallel.Pool) steps { return &dynState{in: in, p: p, pool: pool} }},
		{"GPU-Par", func(in Input, p Params, pool *parallel.Pool) steps {
			return &gpuState{state: newState(in, p, pool), dev: &device.Device{SMs: 4, WarpSize: 8}}
		}},
	}
	type scenarioFn func(testing.TB, int64) (Input, Params)
	sets := []struct {
		build      scenarioFn
		seed, stop int64
	}{{randomScenario, 500, 540}, {wideScenario, 400, 424}}
	for _, threads := range stageTwoThreads() {
		pool := parallel.NewPool(threads)
		defer pool.Close()
		for _, v := range variants {
			checked, againstCentrals := 0, 0
			for _, set := range sets {
				for seed := set.seed; seed < set.stop; seed++ {
					in, base := set.build(t, seed)
					for _, k := range []int{base.TopK, in.G.NumNodes() + 1} {
						p := Params{TopK: k, Threads: threads, MaxLevel: base.MaxLevel}.Defaults()
						st := v.mk(in, p, pool)
						st.initialize()
						centrals := 0
						for l := 0; st.enqueue() > 0; l++ {
							frontier, hitBy, central := frontierView(st)
							for _, f := range frontier {
								id := graph.NodeID(f)
								if !hitBy(id, l) {
									t.Fatalf("%s T=%d seed %d k=%d level %d: frontier node %d has no hit at or below the level", v.name, threads, seed, k, l, id)
								}
								if central(id) {
									t.Fatalf("%s T=%d seed %d k=%d level %d: frontier node %d is central", v.name, threads, seed, k, l, id)
								}
							}
							checked += len(frontier)
							if centrals > 0 {
								againstCentrals += len(frontier)
							}
							centrals += st.identify(l)
							if centrals >= p.TopK || l >= p.MaxLevel {
								break
							}
							st.expand(l)
						}
					}
				}
			}
			if againstCentrals == 0 {
				t.Fatalf("%s T=%d: no frontier met an earlier Central Node; the check went untested", v.name, threads)
			}
			t.Logf("%s T=%d: %d frontier entries checked, %d after a Central Node was found", v.name, threads, checked, againstCentrals)
		}
	}
}
