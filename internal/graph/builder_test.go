package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceBuildCSR is the builder's original one-direction CSR
// construction, kept as the oracle for buildCSR: a counting scatter on the
// key endpoint, then one comparison sort per list by (value endpoint,
// relation).
func referenceBuildCSR(n, m int, key, val []NodeID, rel []RelID) ([]uint32, []NodeID, []RelID) {
	off := make([]uint32, n+1)
	for _, k := range key {
		off[k+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	dst := make([]NodeID, m)
	rl := make([]RelID, m)
	cursor := make([]uint32, n)
	copy(cursor, off[:n])
	for i := 0; i < m; i++ {
		k := key[i]
		p := cursor[k]
		cursor[k]++
		dst[p] = val[i]
		rl[p] = rel[i]
	}
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		seg := adjSeg{dst[lo:hi], rl[lo:hi]}
		sort.Sort(seg)
	}
	return off, dst, rl
}

type adjSeg struct {
	dst []NodeID
	rel []RelID
}

func (s adjSeg) Len() int { return len(s.dst) }
func (s adjSeg) Less(i, j int) bool {
	if s.dst[i] != s.dst[j] {
		return s.dst[i] < s.dst[j]
	}
	return s.rel[i] < s.rel[j]
}
func (s adjSeg) Swap(i, j int) {
	s.dst[i], s.dst[j] = s.dst[j], s.dst[i]
	s.rel[i], s.rel[j] = s.rel[j], s.rel[i]
}

// oracleEdges is a random multigraph with every shape the builder must
// order exactly: repeated edges, parallel edges under different relations,
// self-loops, isolated nodes (the top tenth of the ids is never an
// endpoint), more than 256 relation ids, and, when hubIn > 0, node 0 as a
// hub with hubIn extra in-edges, many of them parallel.
func oracleEdges(rng *rand.Rand, n, m, rels, hubIn int) (from, to []NodeID, rel []RelID) {
	used := max(1, n-n/10)
	add := func(u, v NodeID, r RelID) {
		from, to, rel = append(from, u), append(to, v), append(rel, r)
	}
	for len(from) < m {
		u, v, r := NodeID(rng.Intn(used)), NodeID(rng.Intn(used)), RelID(rng.Intn(rels))
		switch rng.Intn(10) {
		case 0: // self-loop
			v = u
		case 1: // the same edge again
			add(u, v, r)
		case 2: // a parallel edge under another relation
			add(u, v, RelID(rng.Intn(rels)))
		}
		add(u, v, r)
	}
	for i := 0; i < hubIn; i++ {
		add(NodeID(rng.Intn(min(used, 2000))), 0, RelID(rng.Intn(rels)))
	}
	// Shuffle so input order carries no structure the builder could lean on.
	rng.Shuffle(len(from), func(i, j int) {
		from[i], from[j] = from[j], from[i]
		to[i], to[j] = to[j], to[i]
		rel[i], rel[j] = rel[j], rel[i]
	})
	return from, to, rel
}

// TestBuildMatchesReference builds random multigraphs through the Builder
// on 1, 2, 3, GOMAXPROCS and 8 workers (more workers than some graphs have
// lists) and compares all six CSR arrays with referenceBuildCSR.
func TestBuildMatchesReference(t *testing.T) {
	type shape struct{ n, m, rels, hubIn int }
	shapes := []shape{
		{0, 0, 1, 0},
		{1, 5, 1, 0},
		{7, 40, 3, 0},
		{300, 2000, 300, 0},
		{5000, 40000, 400, 0},
		{20000, 60000, 2, 0},
		{30000, 50000, 260, 120000}, // the hub: >100k in-edges
	}
	rng := rand.New(rand.NewSource(39))
	for _, s := range shapes {
		from, to, rel := oracleEdges(rng, s.n, s.m, s.rels, s.hubIn)
		m := len(from)
		wantOutOff, wantOutDst, wantOutRel := referenceBuildCSR(s.n, m, from, to, rel)
		wantInOff, wantInSrc, wantInRel := referenceBuildCSR(s.n, m, to, from, rel)
		b := NewBuilder()
		for v := 0; v < s.n; v++ {
			b.AddNode(fmt.Sprintf("n%d", v), "")
		}
		for i := range from {
			b.AddEdge(from[i], to[i], rel[i])
		}
		for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 8} {
			t.Run(fmt.Sprintf("n=%d,m=%d,workers=%d", s.n, m, workers), func(t *testing.T) {
				g, err := b.build(workers)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name  string
					equal bool
				}{
					{"outOff", slices.Equal(g.outOff, wantOutOff)},
					{"outDst", slices.Equal(g.outDst, wantOutDst)},
					{"outRel", slices.Equal(g.outRel, wantOutRel)},
					{"inOff", slices.Equal(g.inOff, wantInOff)},
					{"inSrc", slices.Equal(g.inSrc, wantInSrc)},
					{"inRel", slices.Equal(g.inRel, wantInRel)},
				} {
					if !c.equal {
						t.Errorf("%s differs from the reference", c.name)
					}
				}
			})
		}
	}
}

// TestBuildLimits: Build refuses more relation types than a RelID holds and
// more text than uint32 offsets address, naming the limit, and accepts
// exactly the limit of relation types. The text check is on the size
// alone, so the test allocates nothing near 4 GiB.
func TestBuildLimits(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("a", "")
	for r := 0; r < MaxRels; r++ {
		b.AddEdge(a, a, b.Rel(fmt.Sprintf("r%d", r)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%d relation types refused: %v", MaxRels, err)
	}
	if g.NumRels() != MaxRels || g.RelName(MaxRels-1) != fmt.Sprintf("r%d", MaxRels-1) {
		t.Fatalf("NumRels = %d, last = %q", g.NumRels(), g.RelName(MaxRels-1))
	}
	b.Rel("one too many")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "65536 relation types exceed the limit of 65535") {
		t.Fatalf("err = %v, want the relation type limit", err)
	}

	if err := textLimit("label", MaxTextBytes); err != nil {
		t.Fatalf("4 GiB - 1 of labels refused: %v", err)
	}
	err = textLimit("description", MaxTextBytes+1)
	if err == nil || !strings.Contains(err.Error(), "description text exceed the limit of 4294967295") {
		t.Fatalf("err = %v, want the text limit", err)
	}
}
