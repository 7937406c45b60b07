package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"wikisearch/internal/gen"
	"wikisearch/internal/graph"
	"wikisearch/internal/server"
	"wikisearch/internal/text"
)

// workloadSpec is one named workload. The query population of a workload is
// fixed by PopSeed: per-query latency on these graphs is heavy-tailed (p99
// is ~20x p50), so drawing fresh queries per run would move the mean by
// ±20% and bury a 10% bound — the paper, too, measures one fixed keyword
// list. The -seed argument drives everything a run does with that
// population: the visit order (and with it which queries meet in a batch
// and what the LRU holds), the mutation content, and the verified and
// traced samples.
type workloadSpec struct {
	Name   string
	Why    string // one line, repeated in BENCHMARK.json
	Preset string // dataset preset
	HTTP   bool   // through the loopback server rather than in-process
	// Clients is the number of closed-loop search clients; 0 means nproc.
	// Every count is clamped to nproc.
	Clients int
	Loop    string // load shape, for the report
	Knum    []int  // keyword counts the population mixes
	Pool    int    // distinct queries in the population
	PopSeed int64
	// Zipf > 0 visits query r (r+1)^-Zipf as often as query 0, Pass visits
	// to a pass, instead of every query once.
	Zipf float64
	Pass int
	// Write side (mutate-mix): an open-loop writer posts BatchOps-op batches
	// at WriteRate per second; the compactor folds the delta every
	// CompactAfter ops; every PlantEvery-th batch plants a unique token.
	WriteRate    int
	BatchOps     int
	CompactAfter int
	PlantEvery   int
	// TraceSample is how many queries the traced run times at every layer.
	TraceSample int
}

var workloads = []workloadSpec{
	{
		Name:   "solo-deep",
		Why:    "wiki2018-sim, 1 closed-loop in-process client, 4-keyword queries on all cores: core and parallel do the work; server, cache and batcher are bypassed and must not move it",
		Preset: "wiki2018-sim", Clients: 1, Loop: "closed",
		Knum: []int{4}, Pool: 64, PopSeed: 1, TraceSample: 16,
	},
	{
		Name:   "http-hot",
		Preset: "wiki2018-sim", HTTP: true, Loop: "closed",
		Why:  "wiki2018-sim, nproc closed-loop HTTP clients, Zipf(1.2) over 1024 queries, ~80% LRU hits: server and net/http do the work; p50 is the hit path, p95 the miss path",
		Knum: []int{1, 2, 3}, Pool: 1024, PopSeed: 123, Zipf: 1.2, Pass: 2048, TraceSample: 48,
	},
	{
		Name:   "http-cold",
		Preset: "wiki2018-sim", HTTP: true, Loop: "closed",
		Why:  "wiki2018-sim, nproc closed-loop HTTP clients cycling 272 queries past the 256-entry LRU, ~0 hits: every request pays text, epoch pin, batch window, kernel and encode, two at a time",
		Knum: []int{2, 3}, Pool: 272, PopSeed: 23, TraceSample: 32,
	},
	{
		Name:   "mutate-mix",
		Preset: "wiki2017-sim", HTTP: true, Clients: 1, Loop: "closed reader + open writer",
		Why:  "wiki2017-sim, 1 closed-loop reader beside an open-loop writer at 20 publishes/s with compaction every 512 ops: overlays, epoch retire, cache purge and compactor stalls show only here",
		Knum: []int{2, 3}, Pool: 128, PopSeed: 2317,
		WriteRate: 20, BatchOps: 8, CompactAfter: 512, PlantEvery: 50, TraceSample: 64,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// presetConfig maps a dataset preset name to its generator config; the
// presets keep their own generator seeds.
func presetConfig(name string) (gen.Config, error) {
	switch name {
	case "tiny-sim":
		return gen.TinySim(), nil
	case "wiki2017-sim":
		return gen.Wiki2017Sim(), nil
	case "wiki2018-sim":
		return gen.Wiki2018Sim(), nil
	}
	return gen.Config{}, fmt.Errorf("unknown preset %q", name)
}

// buildPool returns the workload's query population: spec.Pool queries that
// mix the keyword counts of spec.Knum round-robin and are distinct after
// normalization, so no two share a result-cache key. A graph too small to
// supply that many (tiny-sim in the self-tests) yields fewer.
func buildPool(g *graph.Graph, ix *text.Index, spec workloadSpec) []string {
	kb := &gen.KB{Graph: g}
	per := spec.Pool/len(spec.Knum) + spec.Pool/8 + 8 // headroom for duplicates
	lists := make([][]string, len(spec.Knum))
	for i, knum := range spec.Knum {
		lists[i] = gen.EfficiencyWorkload(kb, ix, knum, per, spec.PopSeed+int64(knum)).Queries
	}
	seen := map[string]bool{}
	var pool []string
	for i := 0; len(pool) < spec.Pool; i++ {
		list := lists[i%len(lists)]
		j := i / len(lists)
		if j >= per {
			break
		}
		if j >= len(list) {
			continue
		}
		key := strings.Join(text.QueryTerms(list[j]), " ")
		if key == "" || seen[key] {
			continue
		}
		seen[key] = true
		// A one-keyword query is a substring of a label, and g may be a
		// mapping that is closed before the query is used.
		pool = append(pool, strings.Clone(list[j]))
	}
	return pool
}

// visitOrder is one pass over the workload: the sequence of population
// indices a run's clients consume, over and over. What a pass holds does not
// depend on the seed — every query once, or, for a Zipf workload, query r
// about Pass·(r+1)^-s/H times, the shares rounded cumulatively so that they
// add up to Pass — only its order does. Runs on different seeds therefore do
// the same work in another order, and a metric computed over whole passes
// differs between them by measurement noise alone.
//
// Cycling through every query once makes each query's reuse distance the
// population size.
func visitOrder(spec workloadSpec, pool int, seed int64) []int32 {
	var pass []int32
	if spec.Zipf <= 0 {
		for q := 0; q < pool; q++ {
			pass = append(pass, int32(q))
		}
	} else {
		weights := make([]float64, pool)
		var total float64
		for r := range weights {
			weights[r] = math.Pow(float64(r+1), -spec.Zipf)
			total += weights[r]
		}
		var cum float64
		for r, w := range weights {
			cum += w / total * float64(spec.Pass)
			for len(pass) < int(math.Round(cum)) {
				pass = append(pass, int32(r))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass
}

// sampleIndices picks n distinct indices below limit with its own seeded
// stream (all of them when limit <= n).
func sampleIndices(limit, n int, seed int64) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(limit)
	if n < limit {
		idx = idx[:n]
	}
	return idx
}

// mutBatch is one POST /v1/mutate request of the write stream with what its
// acknowledgement must say.
type mutBatch struct {
	Body []byte
	// NewNodes are the dense ids the batch's add_node ops must be assigned,
	// in op order.
	NewNodes []int64
	// Plant is the unique token planted in this batch's first new node
	// (empty on most batches).
	Plant string
}

// mutationBatches generates the write stream: count batches of spec.BatchOps
// ops each over base graph g. A batch adds two nodes wired into the graph,
// retexts one base node, adds one base-to-base edge and removes the one the
// previous batch added, so the delta grows by nodes, edges and terms while
// removals only ever touch edges the stream itself created. Content is a
// pure function of (g, spec, seed).
func mutationBatches(g *graph.Graph, spec workloadSpec, count int, seed int64) ([]mutBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	base := g.NumNodes()
	rel := g.RelName(0)
	next := int64(base) // id the next add_node is assigned
	id := func(v int64) *int64 { return &v }
	baseNode := func() int64 { return int64(rng.Intn(base)) }
	publish := true

	type edge struct{ from, to int64 }
	var prev *edge
	batches := make([]mutBatch, count)
	for b := range batches {
		var ops []server.MutateOp
		mb := &batches[b]
		label := "live " + g.Label(graph.NodeID(baseNode()))
		if spec.PlantEvery > 0 && b%spec.PlantEvery == 0 {
			mb.Plant = fmt.Sprintf("zqplant%dx%d", seed, b)
			label = mb.Plant + " " + label
		}
		a, bNode := next, next+1
		next += 2
		mb.NewNodes = []int64{a, bNode}
		v := baseNode()
		e := edge{baseNode(), baseNode()}
		ops = append(ops,
			server.MutateOp{Op: "add_node", Label: label, Desc: "benchmark write stream"},
			server.MutateOp{Op: "add_edge", From: id(a), To: id(baseNode()), Rel: rel},
			server.MutateOp{Op: "add_edge", From: id(baseNode()), To: id(a), Rel: rel},
			server.MutateOp{Op: "add_node", Label: "live " + g.Label(graph.NodeID(baseNode())), Desc: "benchmark write stream"},
			server.MutateOp{Op: "add_edge", From: id(bNode), To: id(a), Rel: rel},
			server.MutateOp{Op: "set_keywords", Node: id(v),
				Label: g.Label(graph.NodeID(v)) + " revised", Desc: g.Description(graph.NodeID(v))},
			server.MutateOp{Op: "add_edge", From: id(e.from), To: id(e.to), Rel: rel},
		)
		if prev != nil {
			ops = append(ops, server.MutateOp{Op: "remove_edge", From: id(prev.from), To: id(prev.to), Rel: rel})
		} else {
			ops = append(ops, server.MutateOp{Op: "add_edge", From: id(baseNode()), To: id(baseNode()), Rel: rel})
		}
		prev = &e
		if len(ops) != spec.BatchOps {
			return nil, fmt.Errorf("write stream builds %d-op batches, spec says %d", len(ops), spec.BatchOps)
		}
		body, err := json.Marshal(server.V1MutateRequest{Ops: ops, Publish: &publish})
		if err != nil {
			return nil, err
		}
		mb.Body = body
	}
	return batches, nil
}
