package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wikisearch/internal/parallel"
)

// checkSampleMatchesReference asserts SampleAverageDistance equals the
// serial oracle exactly (==, not within a tolerance) at every pool size.
func checkSampleMatchesReference(t *testing.T, name string, g *Graph, pairs int, seed int64) {
	t.Helper()
	want := referenceSampleAverageDistance(g, pairs, rand.New(rand.NewSource(seed)))
	for _, workers := range poolSizes {
		pool := parallel.NewPool(workers)
		got := SampleAverageDistance(g, pairs, rand.New(rand.NewSource(seed)), pool)
		pool.Close()
		if got != want {
			t.Errorf("%s, %d workers: sample = %+v, oracle %+v", name, workers, got, want)
		}
	}
}

// componentsGraph is a random graph sparse enough to fall apart into many
// components, so a share of the sampled pairs is unreachable.
func componentsGraph(t testing.TB, seed int64) *Graph {
	g, _ := randomGraph(t, 300, 220, seed)
	if _, k := Components(g); k < 3 {
		t.Fatalf("seed %d: %d components, want several", seed, k)
	}
	return g
}

func TestSampleAverageDistanceMatchesReferenceComponents(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := componentsGraph(t, seed)
		want := referenceSampleAverageDistance(g, 400, rand.New(rand.NewSource(seed)))
		if want.Reachable == 0 || want.Reachable == want.Pairs {
			t.Fatalf("seed %d: %d of %d pairs reachable; want a mix", seed, want.Reachable, want.Pairs)
		}
		checkSampleMatchesReference(t, fmt.Sprintf("components seed %d", seed), g, 400, seed)
	}
}

func TestSampleAverageDistanceMatchesReferenceDense(t *testing.T) {
	g, _ := randomGraph(t, 500, 3000, 9)
	checkSampleMatchesReference(t, "dense", g, 600, 3)
	checkSampleMatchesReference(t, "path", buildPath(t, 40), 300, 5)
}

// TestSampleAverageDistanceMatchesReferenceOverlay samples both a delta
// overlay (added nodes and edges, retexted and edge-removed nodes) and the
// flat graph materialised from it.
func TestSampleAverageDistanceMatchesReferenceOverlay(t *testing.T) {
	base := componentsGraph(t, 7)
	d := NewDeltaBuilder(base)
	rng := rand.New(rand.NewSource(7))
	r := d.Rel("added")
	for i := 0; i < 40; i++ {
		v := d.AddNode(fmt.Sprintf("new %d", i), "added node")
		if err := d.AddEdge(v, NodeID(rng.Intn(base.NumNodes())), r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := d.AddEdge(NodeID(rng.Intn(d.NumNodes())), NodeID(rng.Intn(d.NumNodes())), r); err != nil {
			t.Fatal(err)
		}
		if err := d.SetText(NodeID(rng.Intn(base.NumNodes())), "retexted", ""); err != nil {
			t.Fatal(err)
		}
	}
	for v := NodeID(0); v < 20; v++ {
		dst, rel := base.OutEdges(v)
		if len(dst) > 0 {
			if err := d.RemoveEdge(v, dst[0], rel[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ov := d.Overlay()
	checkSampleMatchesReference(t, "overlay", ov, 500, 11)
	checkSampleMatchesReference(t, "materialized", ov.Materialize(), 500, 11)
}

// TestDistanceScratchStampWrap runs a scratch through one full generation
// cycle: pairs at the first generations leave their stamps behind, then the
// generation jumps to just below the uint32 wrap and every pair across it
// must match the oracle — a stale stamp from the previous cycle must never
// read as reached.
func TestDistanceScratchStampWrap(t *testing.T) {
	g, _ := randomGraph(t, 200, 260, 5)
	sc := newDistScratch(g.NumNodes())
	rng := rand.New(rand.NewSource(5))
	var pairs [][2]NodeID
	for len(pairs) < 12 {
		s, tt := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if s != tt {
			pairs = append(pairs, [2]NodeID{s, tt})
		}
	}
	check := func(i int, p [2]NodeID) {
		t.Helper()
		if got, want := sc.distance(g, p[0], p[1]), referenceDistance(g, p[0], p[1]); got != want {
			t.Fatalf("pair %d (%d,%d) at generation %d: distance %d, oracle %d", i, p[0], p[1], sc.gen, got, want)
		}
	}
	for i, p := range pairs {
		check(i, p)
	}
	sc.gen = math.MaxUint32 - 2
	for i := range pairs {
		// Reversed, so the pairs stamped at generations 1, 2, … are not
		// the ones that reuse those generations after the wrap.
		check(i, pairs[len(pairs)-1-i])
	}
	if sc.gen != uint32(len(pairs))-2 {
		t.Fatalf("generation %d after the wrap, want %d", sc.gen, len(pairs)-2)
	}
}

// TestDistanceScratchAllocationFree: once a worker's scratch frontiers have
// grown, a per-pair distance allocates nothing.
func TestDistanceScratchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	g, _ := randomGraph(t, 2000, 12000, 3)
	sc := newDistScratch(g.NumNodes())
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))}
		sc.distance(g, pairs[i][0], pairs[i][1]) // warm: grow the frontiers
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		sc.distance(g, p[0], p[1])
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm per-pair distance allocates %.1f times per run, want 0", allocs)
	}
}
