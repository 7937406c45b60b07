package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wikisearch/internal/parallel"
)

// referenceDistance is the original per-pair bidirectional BFS, kept as the
// oracle for distScratch: it allocates and fills two |V|-sized arrays per
// call and expands through ForEachNeighbor.
func referenceDistance(g *Graph, s, t NodeID) int {
	if s == t {
		return 0
	}
	n := g.NumNodes()
	distS := make([]int32, n)
	distT := make([]int32, n)
	for i := range distS {
		distS[i] = -1
		distT[i] = -1
	}
	distS[s], distT[t] = 0, 0
	frontS := []NodeID{s}
	frontT := []NodeID{t}
	depthS, depthT := int32(0), int32(0)
	best := -1
	for len(frontS) > 0 && len(frontT) > 0 {
		// Expand the smaller frontier.
		if frontierCost(g, frontS) <= frontierCost(g, frontT) {
			next, meet := referenceExpandFrontier(g, frontS, distS, distT, depthS)
			if meet >= 0 && (best < 0 || meet < best) {
				best = meet
			}
			frontS, depthS = next, depthS+1
		} else {
			next, meet := referenceExpandFrontier(g, frontT, distT, distS, depthT)
			if meet >= 0 && (best < 0 || meet < best) {
				best = meet
			}
			frontT, depthT = next, depthT+1
		}
		if best >= 0 && int(depthS+depthT) >= best {
			return best
		}
	}
	return best
}

// referenceExpandFrontier advances one BFS level. dist is the side being
// expanded, other the opposite side; returns the next frontier and the best
// meeting distance found at this level (-1 if none).
func referenceExpandFrontier(g *Graph, front []NodeID, dist, other []int32, depth int32) ([]NodeID, int) {
	var next []NodeID
	meet := -1
	for _, v := range front {
		g.ForEachNeighbor(v, func(n NodeID, _ RelID, _ bool) {
			if dist[n] >= 0 {
				return
			}
			dist[n] = depth + 1
			if other[n] >= 0 {
				d := int(depth + 1 + other[n])
				if meet < 0 || d < meet {
					meet = d
				}
			}
			next = append(next, n)
		})
	}
	return next, meet
}

// referenceSampleAverageDistance is the original serial sampler over
// referenceDistance: one pair drawn and evaluated at a time, sums in pair
// order.
func referenceSampleAverageDistance(g *Graph, pairs int, rng *rand.Rand) DistanceSample {
	n := g.NumNodes()
	res := DistanceSample{Pairs: pairs}
	if n < 2 || pairs <= 0 {
		return res
	}
	var sum, sumSq float64
	for i := 0; i < pairs; i++ {
		s := NodeID(rng.Intn(n))
		t := NodeID(rng.Intn(n))
		if s == t {
			t = NodeID((int(t) + 1) % n)
		}
		d := referenceDistance(g, s, t)
		if d < 0 {
			continue
		}
		res.Reachable++
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	if res.Reachable > 0 {
		res.Mean = sum / float64(res.Reachable)
		variance := sumSq/float64(res.Reachable) - res.Mean*res.Mean
		if variance < 0 {
			variance = 0
		}
		res.Deviation = math.Sqrt(variance)
	}
	return res
}

// poolSizes are the worker counts every sampler/oracle comparison runs at;
// 3 splits the pairs unevenly.
var poolSizes = []int{1, 2, 3}

// checkDistance asserts the oracle and a fresh distScratch both return want.
func checkDistance(t *testing.T, g *Graph, s, tt NodeID, want int) {
	t.Helper()
	if got := referenceDistance(g, s, tt); got != want {
		t.Errorf("referenceDistance(%d,%d) = %d, want %d", s, tt, got, want)
	}
	if got := newDistScratch(g.NumNodes()).distance(g, s, tt); got != want {
		t.Errorf("distScratch.distance(%d,%d) = %d, want %d", s, tt, got, want)
	}
}

func TestDistancePath(t *testing.T) {
	g := buildPath(t, 10)
	cases := []struct {
		s, tt NodeID
		want  int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 9, 9}, {9, 0, 9}, {3, 7, 4},
	}
	for _, c := range cases {
		checkDistance(t, g, c.s, c.tt, c.want)
	}
}

func TestDistanceUnreachable(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", "")
	b.AddNode("b", "")
	g, _ := b.Build()
	checkDistance(t, g, 0, 1, -1)
}

func TestDistanceMatchesBFSReference(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := randomGraph(t, 40, 70, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		sc := newDistScratch(g.NumNodes())
		for trial := 0; trial < 10; trial++ {
			s := NodeID(rng.Intn(g.NumNodes()))
			dist := BFSDistances(g, s)
			tt := NodeID(rng.Intn(g.NumNodes()))
			if int32(referenceDistance(g, s, tt)) != dist[tt] || int32(sc.distance(g, s, tt)) != dist[tt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	// Bi-directed distance must be symmetric.
	f := func(seed int64) bool {
		g, _ := randomGraph(t, 30, 50, seed)
		rng := rand.New(rand.NewSource(seed ^ 7))
		for trial := 0; trial < 8; trial++ {
			s := NodeID(rng.Intn(g.NumNodes()))
			tt := NodeID(rng.Intn(g.NumNodes()))
			if referenceDistance(g, s, tt) != referenceDistance(g, tt, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleAverageDistance(t *testing.T) {
	g := buildPath(t, 50)
	pool := parallel.NewPool(2)
	defer pool.Close()
	s := SampleAverageDistance(g, 500, rand.New(rand.NewSource(1)), pool)
	if s.Reachable != 500 {
		t.Fatalf("Reachable = %d, want 500", s.Reachable)
	}
	// Expected average distance on a path of n nodes is about n/3.
	if s.Mean < 10 || s.Mean > 24 {
		t.Fatalf("Mean = %.2f, outside plausible range for a 50-path", s.Mean)
	}
	if s.Deviation <= 0 {
		t.Fatalf("Deviation = %.2f, want > 0", s.Deviation)
	}
}

func TestSampleAverageDistanceDegenerate(t *testing.T) {
	b := NewBuilder()
	b.AddNode("only", "")
	g, _ := b.Build()
	pool := parallel.NewPool(2)
	defer pool.Close()
	s := SampleAverageDistance(g, 100, rand.New(rand.NewSource(1)), pool)
	if s.Reachable != 0 || s.Mean != 0 {
		t.Fatalf("degenerate sample = %+v", s)
	}
	s = SampleAverageDistance(buildPath(t, 5), 0, rand.New(rand.NewSource(1)), pool)
	if s.Pairs != 0 || s.Reachable != 0 {
		t.Fatalf("zero-pair sample = %+v", s)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("n", "")
	}
	r := b.Rel("e")
	b.AddEdge(0, 1, r)
	b.AddEdge(1, 2, r)
	b.AddEdge(3, 4, r)
	g, _ := b.Build()
	comp, k := Components(g)
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("component labels wrong")
	}
	lc := LargestComponent(g)
	if len(lc) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(lc))
	}
}

func TestBFSDistancesMultiSource(t *testing.T) {
	g := buildPath(t, 9)
	dist := BFSDistances(g, 0, 8)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1, 0}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}
