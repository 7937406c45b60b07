package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"wikisearch/internal/graph"
)

// effectivenessQueries mirrors Table V of the paper: eleven keyword queries
// over the CS/IR vocabulary, Q10 with heavy co-occurrence, Q11 with rare
// unambiguous keywords.
var effectivenessQueries = [...]struct {
	id       string
	keywords string
}{
	{"Q1", "xml relational search"},
	{"Q2", "database indexing ranking search"},
	{"Q3", "bayesian inference markov network"},
	{"Q4", "statistical relational learning inference"},
	{"Q5", "sql rdf knowledge base"},
	{"Q6", "supervised learning gradient descent machine translation"},
	{"Q7", "transfer learning auxiliary data retrieval text classification"},
	{"Q8", "xml rdf knowledge base sharing"},
	{"Q9", "network mining medicine retrieval technique"},
	{"Q10", "natural language processing machine learning"},
	{"Q11", "wikidata freebase yahoo neo4j sparql"},
}

// EffectivenessQueryIDs returns the Table V query ids in order.
func EffectivenessQueryIDs() []string {
	out := make([]string, len(effectivenessQueries))
	for i, q := range effectivenessQueries {
		out[i] = q.id
	}
	return out
}

const (
	coresPerQuery  = 5
	decoysPerQuery = 15
	// plantedNodes and plantedEdges are what plantAll adds: a hub per
	// query, and two edges per core and per decoy.
	plantedNodes = len(effectivenessQueries) * (1 + coresPerQuery + decoysPerQuery)
	plantedEdges = len(effectivenessQueries) * 2 * (coresPerQuery + decoysPerQuery)
)

// plantAll plants, for every effectiveness query, (a) relevant cores —
// entities whose labels make several query keywords co-occur, wired through
// a light hub so a compact all-keyword Central Graph exists — and (b)
// decoys — entities carrying one isolated query keyword, wired to summary
// hubs so short-but-meaningless connection trees exist. This substitutes
// the paper's human relevance judgment: co-occurrence was what judges
// rewarded, isolated-keyword joins what they rejected (§VI-B).
func plantAll(b *graph.Builder, vocab *Vocab, rng *rand.Rand, kb *KB,
	relRelated, relInstanceOf, relPublishedIn graph.RelID) []PlantedQuery {
	var out []PlantedQuery
	var filler []int32
	for _, q := range effectivenessQueries {
		words := strings.Fields(q.keywords)
		p := PlantedQuery{ID: q.id, Keywords: words}

		// The hub: a light-weight collaboration-like entity.
		hub := b.AddNode(
			fmt.Sprintf("%s workshop on %s", q.id, words[0]),
			"collaborative project")
		p.Hub = hub

		// Cores: each co-occurs 2–3 consecutive query keywords (phrases),
		// together covering every keyword; Q10 cores co-occur everything
		// (the paper: "these keywords have lots of co-occurrences").
		for c := 0; c < coresPerQuery; c++ {
			var label string
			if q.id == "Q10" {
				label = q.keywords
			} else {
				span := 2 + rng.Intn(2)
				start := (c * 2) % len(words)
				var ws []string
				for j := 0; j < span; j++ {
					ws = append(ws, words[(start+j)%len(words)])
				}
				label = strings.Join(ws, " ")
			}
			filler = vocab.drawN(filler[:0], 2, rng)
			core := b.AddNode(
				fmt.Sprintf("%s study %d", label, c),
				vocab.join(filler))
			p.Cores = append(p.Cores, core)
			b.AddEdge(core, hub, relRelated)
			// Keep cores embedded in the graph at large.
			b.AddEdge(core, kb.Venues[zipfIndex(rng, len(kb.Venues))], relPublishedIn)
		}

		// Decoys: exactly one query keyword, embedded next to summary hubs
		// (the superhub class and a common venue), forming the cheap
		// meaningless joins.
		for d := 0; d < decoysPerQuery; d++ {
			w := words[d%len(words)]
			filler = vocab.drawN(filler[:0], 2, rng)
			decoy := b.AddNode(w+" "+vocab.join(filler), "")
			p.Decoys = append(p.Decoys, decoy)
			b.AddEdge(decoy, kb.Classes[0], relInstanceOf) // the "human" superhub
			b.AddEdge(decoy, kb.Venues[zipfIndex(rng, len(kb.Venues))], relPublishedIn)
		}
		out = append(out, p)
	}
	return out
}
