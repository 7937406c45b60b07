package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wikisearch/internal/device"
	"wikisearch/internal/graph"
)

// randomScenario builds a random graph, activation levels, dyadic weights
// (so score sums are bit-exact regardless of summation split) and a random
// multi-keyword query, all deterministic in seed.
func randomScenario(t testing.TB, seed int64) (Input, Params) {
	t.Helper()
	return scenario(t, seed, false)
}

// wideScenario is randomScenario with 10–12 keywords, so every matrix row
// spans two words and the kernels leave their one-word fast paths.
func wideScenario(t testing.TB, seed int64) (Input, Params) {
	t.Helper()
	return scenario(t, seed, true)
}

func scenario(t testing.TB, seed int64, wide bool) (Input, Params) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(60)
	m := n + rng.Intn(3*n)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "")
	}
	rels := []graph.RelID{b.Rel("r0"), b.Rel("r1"), b.Rel("r2")}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rels[rng.Intn(3)])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]uint8, n)
	weights := make([]float64, n)
	for i := range levels {
		levels[i] = uint8(rng.Intn(4))
		weights[i] = float64(rng.Intn(1024)) / 1024
	}
	q := 2 + rng.Intn(3)
	if wide {
		q += 8
	}
	sources := make([][]graph.NodeID, q)
	for i := range sources {
		sz := 1 + rng.Intn(4)
		seen := map[graph.NodeID]bool{}
		for len(sources[i]) < sz {
			v := graph.NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				sources[i] = append(sources[i], v)
			}
		}
		sort.Slice(sources[i], func(a, b int) bool { return sources[i][a] < sources[i][b] })
	}
	in := buildInput(g, levels, weights, sources...)
	p := Params{TopK: 1 + rng.Intn(8), Threads: 1, MaxLevel: 16}
	return in, p
}

// answerFingerprint reduces an answer to a comparable canonical form.
type answerFingerprint struct {
	central graph.NodeID
	depth   int
	score   float64
	nodes   string
	edges   string
}

func fingerprint(a *Answer) answerFingerprint {
	ids := a.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	nodes := fmt.Sprint(ids)
	es := make([]string, len(a.Edges))
	for i, e := range a.Edges {
		es[i] = fmt.Sprintf("%d>%d:%d:%v:%x", e.From, e.To, e.Rel, e.Forward, e.Keywords)
	}
	sort.Strings(es)
	return answerFingerprint{a.Central, a.Depth, math.Round(a.Score*1e9) / 1e9, nodes, fmt.Sprint(es)}
}

func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.DepthD != b.DepthD {
		t.Fatalf("%s: d mismatch %d vs %d", label, a.DepthD, b.DepthD)
	}
	if a.CentralCandidates != b.CentralCandidates {
		t.Fatalf("%s: candidates %d vs %d", label, a.CentralCandidates, b.CentralCandidates)
	}
	if len(a.Answers) != len(b.Answers) {
		t.Fatalf("%s: answer counts %d vs %d", label, len(a.Answers), len(b.Answers))
	}
	for i := range a.Answers {
		fa, fb := fingerprint(a.Answers[i]), fingerprint(b.Answers[i])
		if fa != fb {
			t.Fatalf("%s: answer %d differs:\n  %+v\n  %+v", label, i, fa, fb)
		}
	}
}

// TestVariantsEquivalent is the core integration property: the sequential
// algorithm, CPU-Par at several thread counts, and the lock-based dynamic
// variant all return identical results.
func TestVariantsEquivalent(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		in, p := randomScenario(t, seed)
		ref, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 4, 8} {
			pp := p
			pp.Threads = threads
			got, err := Search(in, pp)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d CPU-Par T=%d", seed, threads), ref, got)
		}
		for _, threads := range []int{1, 4} {
			pp := p
			pp.Threads = threads
			got, err := SearchDynamic(in, pp)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d CPU-Par-d T=%d", seed, threads), ref, got)
		}
	}
}

// TestGPUEquivalent: the SIMT-mapped variant returns identical results to
// the CPU variants across device shapes.
func TestGPUEquivalent(t *testing.T) {
	shapes := []*device.Device{
		{SMs: 1, WarpSize: 1}, // fully serialized
		{SMs: 4, WarpSize: 8}, // small grid
		device.GTX1080Ti(),    // paper hardware shape
	}
	for seed := int64(50); seed < 80; seed++ {
		in, p := randomScenario(t, seed)
		ref, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for si, dev := range shapes {
			got, err := SearchGPU(in, p, dev)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d GPU shape %d", seed, si), ref, &got.Result)
			if got.MatrixBytes != int64(in.G.NumNodes()*rowStride(len(in.Sources))) {
				t.Fatalf("matrix bytes = %d", got.MatrixBytes)
			}
			if dev.HostBandwidth > 0 && got.TransferSeconds <= 0 {
				t.Fatal("transfer time not accounted")
			}
		}
	}
}

// TestSearchDeterministic re-runs the same parallel search and demands
// byte-identical results (lock-free writes must not introduce schedule
// dependence).
func TestSearchDeterministic(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		in, p := randomScenario(t, seed)
		p.Threads = 8
		a, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			b, err := Search(in, p)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d rep %d", seed, rep), a, b)
		}
	}
}

// TestAnswerInvariants checks the model invariants of §III–V on random
// scenarios:
//   - every answer covers every keyword by containment (level-cover safety),
//   - depth equals the central node's maximum hitting level and is ≤ d,
//   - non-keyword nodes are never hit before their activation level,
//   - at most k answers, scores ascending,
//   - every answer edge connects nodes of the answer and its keyword mask
//     is consistent with hitting levels (Theorem V.4 soundness),
//   - answers are connected: every node reaches the central node via edges.
func TestAnswerInvariants(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		in, p := randomScenario(t, seed)
		p.Threads = 4
		res, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		q := len(in.Sources)
		if len(res.Answers) > p.Defaults().TopK {
			t.Fatalf("seed %d: %d answers > k", seed, len(res.Answers))
		}
		for i := 1; i < len(res.Answers); i++ {
			if res.Answers[i].Score < res.Answers[i-1].Score {
				t.Fatalf("seed %d: scores not ascending", seed)
			}
		}
		for ai, a := range res.Answers {
			if !a.ContainsAllKeywords(q) {
				t.Fatalf("seed %d answer %d: does not cover all keywords", seed, ai)
			}
			if a.Depth > res.DepthD {
				t.Fatalf("seed %d answer %d: depth %d > d %d", seed, ai, a.Depth, res.DepthD)
			}
			inAnswer := map[graph.NodeID]*AnswerNode{}
			for j := range a.Nodes {
				n := &a.Nodes[j]
				inAnswer[n.ID] = n
				isKeywordNode := n.Contains != 0
				var maxHit uint8
				for _, h := range n.HitLevels {
					if h == Infinity {
						continue
					}
					if h > maxHit {
						maxHit = h
					}
					if !isKeywordNode && int(h) < int(in.Levels[n.ID]) {
						t.Fatalf("seed %d: node %d hit at %d before activation %d",
							seed, n.ID, h, in.Levels[n.ID])
					}
				}
				if n.ID == a.Central && int(maxHit) != a.Depth {
					t.Fatalf("seed %d: central max hit %d != depth %d (Eq. 1)", seed, maxHit, a.Depth)
				}
			}
			// Edges connect answer nodes; undirected connectivity to central.
			reach := map[graph.NodeID]bool{a.Central: true}
			adj := map[graph.NodeID][]graph.NodeID{}
			for _, e := range a.Edges {
				if inAnswer[e.From] == nil || inAnswer[e.To] == nil {
					t.Fatalf("seed %d: edge endpoints outside answer", seed)
				}
				if e.Keywords == 0 {
					t.Fatalf("seed %d: edge with empty keyword mask", seed)
				}
				adj[e.From] = append(adj[e.From], e.To)
				adj[e.To] = append(adj[e.To], e.From)
			}
			stack := []graph.NodeID{a.Central}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range adj[v] {
					if !reach[w] {
						reach[w] = true
						stack = append(stack, w)
					}
				}
			}
			for id := range inAnswer {
				if !reach[id] {
					t.Fatalf("seed %d: node %d disconnected from central %d", seed, id, a.Central)
				}
			}
		}
	}
}

// TestExtractionSoundness verifies Theorem V.4 directly: for every answer
// edge parent→child on keyword i, the recorded hitting levels satisfy the
// theorem's equality.
func TestExtractionSoundness(t *testing.T) {
	for seed := int64(300); seed < 340; seed++ {
		in, p := randomScenario(t, seed)
		res, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		contains := make(map[graph.NodeID]bool)
		for _, src := range in.Sources {
			for _, v := range src {
				contains[v] = true
			}
		}
		for _, a := range res.Answers {
			hit := map[graph.NodeID][]uint8{}
			for _, n := range a.Nodes {
				hit[n.ID] = n.HitLevels
			}
			for _, e := range a.Edges {
				for i := 0; i < len(in.Sources); i++ {
					if e.Keywords&(1<<uint(i)) == 0 {
						continue
					}
					hChild := int(hit[e.To][i])
					hParent := int(hit[e.From][i])
					aParent := int(in.Levels[e.From])
					want := 1 + max(aParent, hParent)
					if !contains[e.To] {
						want = 1 + max(aParent, hParent, int(in.Levels[e.To])-1)
					}
					if hChild != want {
						t.Fatalf("seed %d: edge %d→%d keyword %d: child hit %d, Theorem V.4 gives %d",
							seed, e.From, e.To, i, hChild, want)
					}
				}
			}
		}
	}
}

// TestLevelCoverPreservesCoverage exercises the Fig. 5 scenario: decoy
// single-keyword nodes sharing a level with a needed single-keyword node
// are pruned, the needed one kept.
func TestLevelCoverFig5(t *testing.T) {
	// Central c; a 2-keyword node ju ("Jeffrey Ullman"); a 1-keyword node
	// su ("Stanford University"); two decoys containing only "Jeffrey".
	b := graph.NewBuilder()
	c := b.AddNode("central", "")
	ju := b.AddNode("jeffrey ullman", "")
	su := b.AddNode("stanford university", "")
	d1 := b.AddNode("jeffrey decoy 1", "")
	d2 := b.AddNode("jeffrey decoy 2", "")
	r := b.Rel("e")
	b.AddEdge(ju, c, r)
	b.AddEdge(su, c, r)
	b.AddEdge(d1, c, r)
	b.AddEdge(d2, c, r)
	g, _ := b.Build()
	// Keywords: 0=stanford {su}, 1=jeffrey {ju,d1,d2}, 2=ullman {ju}.
	in := buildInput(g, nil, nil,
		[]graph.NodeID{su}, []graph.NodeID{ju, d1, d2}, []graph.NodeID{ju})
	res, err := Search(in, Params{TopK: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %d", len(res.Answers))
	}
	a := res.Answers[0]
	if a.Central != c {
		t.Fatalf("central = %d, want %d", a.Central, c)
	}
	ids := map[graph.NodeID]bool{}
	for _, n := range a.Nodes {
		ids[n.ID] = true
	}
	if !ids[ju] || !ids[su] {
		t.Fatalf("kept nodes %v must include ju and su", a.NodeIDs())
	}
	if ids[d1] || ids[d2] {
		t.Fatalf("decoys not pruned: %v", a.NodeIDs())
	}
	if a.PrunedNodes != 2 {
		t.Fatalf("PrunedNodes = %d, want 2", a.PrunedNodes)
	}
	if !a.ContainsAllKeywords(3) {
		t.Fatal("coverage lost by pruning")
	}
}

// TestSupersetAnswersRemoved: an answer whose node set strictly contains a
// better-ranked answer's node set is dropped from the top-k.
func TestSupersetAnswersRemoved(t *testing.T) {
	recs := []tdRecord{
		mkRec(0, 1.0, []graph.NodeID{1, 2, 3}),
		mkRec(1, 2.0, []graph.NodeID{1, 2, 3, 4, 5}), // superset of first
		mkRec(2, 3.0, []graph.NodeID{6, 7}),
	}
	out := selectTopK(recs, nil, 10)
	if len(out) != 2 {
		t.Fatalf("kept %d answers, want 2", len(out))
	}
	if out[0] != 0 || out[1] != 2 {
		t.Fatalf("kept records %d,%d", out[0], out[1])
	}
}

// TestSelectTopKProperties: on random candidate pools, selection (a) never
// exceeds k, (b) is sorted by score, (c) never keeps a strict superset of
// an earlier (better) answer, (d) drops non-covering candidates and nils.
func TestSelectTopKProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		recs := make([]tdRecord, 0, n+1)
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(5)
			seen := map[graph.NodeID]bool{}
			ids := make([]graph.NodeID, 0, size)
			for len(ids) < size {
				v := graph.NodeID(rng.Intn(8))
				if !seen[v] {
					seen[v] = true
					ids = append(ids, v)
				}
			}
			rec := mkRec(graph.NodeID(i), float64(rng.Intn(6)), ids)
			rec.covers = rng.Intn(5) > 0
			recs = append(recs, rec)
		}
		recs = append(recs, tdRecord{}) // cancelled extraction slot
		k := 1 + rng.Intn(6)
		out := selectTopK(recs, nil, k)
		if len(out) > k {
			t.Fatalf("trial %d: %d answers > k=%d", trial, len(out), k)
		}
		for i, ri := range out {
			if !recs[ri].covers {
				t.Fatalf("trial %d: kept a non-covering or cancelled record", trial)
			}
			if i > 0 && recs[ri].score < recs[out[i-1]].score {
				t.Fatalf("trial %d: scores not ascending", trial)
			}
		}
		for i, ri := range out {
			aset := map[graph.NodeID]bool{}
			for _, v := range recs[ri].ids {
				aset[v] = true
			}
			for _, rj := range out[:i] {
				b := recs[rj].ids
				if len(b) >= len(recs[ri].ids) {
					continue
				}
				subset := true
				for _, v := range b {
					if !aset[v] {
						subset = false
						break
					}
				}
				if subset {
					t.Fatalf("trial %d: answer %d strictly contains answer %d", trial, ri, rj)
				}
			}
		}
	}
}

// mkRec builds a covering scored record over ids (in any order).
func mkRec(central graph.NodeID, score float64, ids []graph.NodeID) tdRecord {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return tdRecord{central: central, depth: 1, covers: true, score: score, ids: ids}
}
