package core

// Model-based testing: a deliberately naive, obviously-correct simulator of
// the §III–V semantics (per-level full scans, no frontier bookkeeping, no
// concurrency) cross-checked against the optimized implementation. If the
// lock-free frontier machinery ever diverges from the model — a lost
// retained frontier, a premature hit, a missed central — these tests catch
// it on random graphs.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// modelState is the naive simulator's world: hitting levels per (node,
// keyword), the central set, and the level each central was found at.
type modelState struct {
	in       Input
	hit      [][]int // [node][keyword] hitting level, -1 = ∞
	frontier map[graph.NodeID]bool
	central  map[graph.NodeID]int // node → identification level
	centrals []graph.NodeID       // order of identification (by level, then id)
	level    int
}

func newModel(in Input) *modelState {
	n := in.G.NumNodes()
	q := len(in.Sources)
	m := &modelState{
		in:       in,
		hit:      make([][]int, n),
		frontier: map[graph.NodeID]bool{},
		central:  map[graph.NodeID]int{},
	}
	for v := 0; v < n; v++ {
		m.hit[v] = make([]int, q)
		for j := range m.hit[v] {
			m.hit[v][j] = -1
		}
	}
	for i, src := range in.Sources {
		for _, v := range src {
			m.hit[v][i] = 0
			m.frontier[v] = true
		}
	}
	return m
}

func (m *modelState) containsAny(v graph.NodeID) bool {
	for i := range m.in.Sources {
		for _, s := range m.in.Sources[i] {
			if s == v {
				return true
			}
		}
	}
	return false
}

// identify marks frontier nodes hit by every instance as central, in id
// order (matching the sorted frontier of the real implementation).
func (m *modelState) identify() {
	for v := 0; v < len(m.hit); v++ {
		if !m.frontier[graph.NodeID(v)] {
			continue
		}
		if _, done := m.central[graph.NodeID(v)]; done {
			continue
		}
		all := true
		for _, h := range m.hit[v] {
			if h < 0 {
				all = false
				break
			}
		}
		if all {
			m.central[graph.NodeID(v)] = m.level
			m.centrals = append(m.centrals, graph.NodeID(v))
		}
	}
}

// expand: every active, non-central frontier expands each instance it has
// been hit by; the next frontier is rebuilt from scratch.
func (m *modelState) expand() {
	next := map[graph.NodeID]bool{}
	for v := range m.frontier {
		if _, isCentral := m.central[v]; isCentral {
			continue
		}
		if int(m.in.Levels[v]) > m.level {
			next[v] = true // inactive: retained
			continue
		}
		for i := range m.in.Sources {
			if h := m.hit[v][i]; h < 0 || h > m.level {
				continue
			}
			m.in.G.ForEachNeighbor(v, func(nb graph.NodeID, _ graph.RelID, _ bool) {
				if m.hit[nb][i] >= 0 {
					return
				}
				if !m.containsAny(nb) && int(m.in.Levels[nb]) > m.level+1 {
					next[v] = true // blocked neighbor: retain the frontier
					return
				}
				m.hit[nb][i] = m.level + 1
				next[nb] = true
			})
		}
	}
	m.frontier = next
}

// run executes the model with the driver's exact loop: enqueue/empty-check,
// identify, k-check, maxLevel-check, expand, level++.
func (m *modelState) run(k, maxLevel int) int {
	for {
		if len(m.frontier) == 0 {
			return m.level
		}
		m.identify()
		if len(m.central) >= k {
			return m.level
		}
		if m.level >= maxLevel {
			return m.level
		}
		m.expand()
		m.level++
	}
}

// answersEqual holds production stage two to the naive model: complete
// answer lists — nodes, edges, OnPaths, HitLevels, Score, PrunedNodes,
// order — must be deeply equal.
func answersEqual(t *testing.T, label string, got, want []*Answer) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, model %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: answer %d differs:\n  got   %+v\n  model %+v", label, i, *got[i], *want[i])
		}
	}
	t.Fatalf("%s: answer lists differ (nil vs empty?): %v vs %v", label, got, want)
}

// stageTwoThreads are the Tnum values the stage-two oracle runs at.
func stageTwoThreads() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// TestModelCrossCheck cross-checks both stages against the naive model on
// random graphs: hitting levels and Central Nodes from the bottom-up stage,
// then complete answer lists from stage two — solo at Tnum = 1 and
// GOMAXPROCS, k ∈ {1, 2, 20}, level-cover on and off, with the default
// MaxGraphNodes and one small enough that the cap bites — on queries whose
// matrix rows span one word and two — plus CPU-Par-d.
func TestModelCrossCheck(t *testing.T) {
	t.Run("BottomUp", testModelBottomUp)
	t.Run("StageTwo", testModelStageTwo)
	t.Run("StageTwoWide", testModelStageTwoWide)
	t.Run("StageTwoDynamic", testModelStageTwoDynamic)
}

func testModelStageTwo(t *testing.T) {
	capped := 0
	for seed := int64(500); seed < 540; seed++ {
		in, base := randomScenario(t, seed)
		for _, threads := range stageTwoThreads() {
			pool := parallel.NewPool(threads)
			for _, k := range []int{1, 2, 20} {
				for _, noCover := range []bool{false, true} {
					for _, maxNodes := range []int{0, 4} {
						p := Params{TopK: k, Threads: threads, MaxLevel: base.MaxLevel,
							DisableLevelCover: noCover, MaxGraphNodes: maxNodes}.Defaults()
						s := newState(in, p, pool)
						if _, err := runBottomUp(s, p); err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("seed %d T=%d k=%d noCover=%v cap=%d", seed, threads, k, noCover, maxNodes)
						got, gotTruncated, err := s.topDown()
						if err != nil {
							t.Fatal(err)
						}
						want, truncated := modelTopDown(s)
						answersEqual(t, label, got, want)
						if gotTruncated != truncated {
							t.Fatalf("%s: TruncatedGraphs = %d, model %d", label, gotTruncated, truncated)
						}
						if maxNodes == 0 && truncated != 0 {
							t.Fatalf("%s: default cap truncated %d graphs", label, truncated)
						}
						capped += truncated
					}
				}
			}
			pool.Close()
		}
	}
	if capped == 0 {
		t.Fatal("MaxGraphNodes = 4 never bit: the capped path went untested")
	}
}

// testModelStageTwoWide is testModelStageTwo over queries of 10–12
// keywords, whose matrix rows span two words.
func testModelStageTwoWide(t *testing.T) {
	capped := 0
	for seed := int64(400); seed < 424; seed++ {
		in, base := wideScenario(t, seed)
		for _, threads := range stageTwoThreads() {
			pool := parallel.NewPool(threads)
			for _, noCover := range []bool{false, true} {
				for _, maxNodes := range []int{0, 4} {
					p := Params{TopK: base.TopK, Threads: threads, MaxLevel: base.MaxLevel,
						DisableLevelCover: noCover, MaxGraphNodes: maxNodes}.Defaults()
					s := newState(in, p, pool)
					if _, err := runBottomUp(s, p); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d T=%d noCover=%v cap=%d", seed, threads, noCover, maxNodes)
					got, gotTruncated, err := s.topDown()
					if err != nil {
						t.Fatal(err)
					}
					want, truncated := modelTopDown(s)
					answersEqual(t, label, got, want)
					if gotTruncated != truncated {
						t.Fatalf("%s: TruncatedGraphs = %d, model %d", label, gotTruncated, truncated)
					}
					capped += truncated
				}
			}
			pool.Close()
		}
	}
	if capped == 0 {
		t.Fatal("MaxGraphNodes = 4 never bit on a wide query")
	}
}

func testModelStageTwoDynamic(t *testing.T) {
	for seed := int64(500); seed < 540; seed++ {
		in, base := randomScenario(t, seed)
		for _, threads := range stageTwoThreads() {
			pool := parallel.NewPool(threads)
			for _, maxNodes := range []int{0, 4} {
				if maxNodes != 0 && threads > 1 {
					// CPU-Par-d records parents in arrival order, so which
					// nodes a capped recovery admits is scheduling-dependent.
					continue
				}
				p := Params{TopK: base.TopK, Threads: threads, MaxLevel: base.MaxLevel, MaxGraphNodes: maxNodes}.Defaults()
				s := &dynState{in: in, p: p, pool: pool}
				if _, err := runBottomUp(s, p); err != nil {
					t.Fatal(err)
				}
				got, _, err := s.topDown()
				if err != nil {
					t.Fatal(err)
				}
				answersEqual(t, fmt.Sprintf("seed %d CPU-Par-d T=%d cap=%d", seed, threads, maxNodes), got, modelTopDownDynamic(s))
			}
			pool.Close()
		}
	}
}

func testModelBottomUp(t *testing.T) {
	for seed := int64(500); seed < 540; seed++ {
		in, p := randomScenario(t, seed)
		p = p.Defaults()

		// Run the real implementation's bottom-up stage.
		pool := parallel.NewPool(4)
		sp := Params{TopK: p.TopK, Threads: 4, MaxLevel: p.MaxLevel,
			Alpha: p.Alpha, Lambda: p.Lambda}.Defaults()
		s := newState(in, sp, pool)
		d, err := runBottomUp(s, sp)
		if err != nil {
			t.Fatal(err)
		}

		// Run the model to the same depth.
		model := newModel(in)
		md := model.run(p.TopK, p.MaxLevel)

		if d != md {
			t.Fatalf("seed %d: d = %d, model d = %d", seed, d, md)
		}
		// Central sets and identification levels agree.
		if len(s.gr.centrals) != len(model.centrals) {
			t.Fatalf("seed %d: %d centrals vs model %d (%v vs %v)",
				seed, len(s.gr.centrals), len(model.centrals), s.gr.centrals, model.centrals)
		}
		for _, v := range s.gr.centrals {
			ml, ok := model.central[v]
			if !ok {
				t.Fatalf("seed %d: central %d not in model", seed, v)
			}
			if int(s.gr.centralAt[v]) != ml {
				t.Fatalf("seed %d: central %d at level %d, model %d", seed, v, s.gr.centralAt[v], ml)
			}
		}
		// Hitting levels agree everywhere the model ran: the real search
		// may have recorded hits at the final level's expansion the model
		// also performed, so compare cell by cell.
		q := len(in.Sources)
		for v := 0; v < in.G.NumNodes(); v++ {
			for j := 0; j < q; j++ {
				got := int(s.m.Get(graph.NodeID(v), j))
				if got == Infinity {
					got = -1
				}
				want := model.hit[v][j]
				if got != want {
					t.Fatalf("seed %d: h^%d(%d) = %d, model %d", seed, j, v, got, want)
				}
			}
		}
	}
}
