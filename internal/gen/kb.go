package gen

import (
	"fmt"
	"math/rand"
	"sync"

	"wikisearch/internal/graph"
)

// Config controls one synthetic knowledge-base generation.
type Config struct {
	Name string // dataset name, e.g. "wiki2017-sim"
	Seed int64
	// Nodes is the total node budget (classes + topics + venues + entities).
	Nodes int
	// AvgDegree is the target number of directed edges per node.
	AvgDegree float64
	// Classes is the number of class nodes; the first few ("human",
	// "research article", …) become the extreme summary hubs of §IV-A.
	Classes int
	// Topics is the number of topic nodes ("data mining"-like: many
	// same-labeled in-edges, few distinct labels).
	Topics int
	// Venues is the number of conference/journal nodes (mid-size summary
	// nodes, "usually around hundreds of in-edges").
	Venues int
	// VocabSize is the keyword vocabulary size.
	VocabSize int
	// PlantEffectiveness plants the relevance cores and decoys for the
	// Q1–Q11 effectiveness queries (Fig. 11/12).
	PlantEffectiveness bool
}

func (c Config) defaults() Config {
	if c.Name == "" {
		c.Name = "synthetic"
	}
	if c.Nodes <= 0 {
		c.Nodes = 20000
	}
	if c.AvgDegree <= 0 {
		c.AvgDegree = 8
	}
	if c.Classes <= 0 {
		c.Classes = 30
	}
	if c.Topics <= 0 {
		c.Topics = c.Nodes / 200
		if c.Topics < 20 {
			c.Topics = 20
		}
	}
	if c.Venues <= 0 {
		c.Venues = c.Nodes / 400
		if c.Venues < 10 {
			c.Venues = 10
		}
	}
	if c.VocabSize <= 0 {
		c.VocabSize = c.Nodes / 8
	}
	min := c.Classes + c.Topics + c.Venues + 100
	if c.Nodes < min {
		c.Nodes = min
	}
	return c
}

// Wiki2017Sim is the laptop-scale stand-in for the paper's wiki2017 dump
// (15.1M nodes / 124M edges scaled ≈250×).
func Wiki2017Sim() Config {
	return Config{Name: "wiki2017-sim", Seed: 2017, Nodes: 60000, AvgDegree: 8,
		VocabSize: 8000, PlantEffectiveness: true}
}

// Wiki2018Sim is the stand-in for the wiki2018 dump (30.6M nodes / 271M
// edges, scaled by the same factor; twice the nodes and ~2.2× the edges of
// Wiki2017Sim, preserving the dumps' relative growth).
func Wiki2018Sim() Config {
	return Config{Name: "wiki2018-sim", Seed: 2018, Nodes: 120000, AvgDegree: 9,
		VocabSize: 12000, PlantEffectiveness: true}
}

// TinySim is a small config for tests and examples.
func TinySim() Config {
	return Config{Name: "tiny-sim", Seed: 7, Nodes: 3000, AvgDegree: 6,
		VocabSize: 600, PlantEffectiveness: true}
}

// Preset returns the named built-in config: "wiki2017-sim", "wiki2018-sim"
// or "tiny-sim". The empty name is the zero Config, which Generate fills
// with its defaults.
func Preset(name string) (Config, error) {
	switch name {
	case "wiki2017-sim":
		return Wiki2017Sim(), nil
	case "wiki2018-sim":
		return Wiki2018Sim(), nil
	case "tiny-sim":
		return TinySim(), nil
	case "":
		return Config{}, nil
	}
	return Config{}, fmt.Errorf("gen: unknown preset %q", name)
}

// PlantedQuery records one effectiveness query and its planted ground truth.
type PlantedQuery struct {
	ID       string   // "Q1" … "Q11"
	Keywords []string // raw query keywords (Table V analogues)
	// Cores are the planted relevant nodes: entities whose labels co-occur
	// several query keywords. An answer is judged relevant iff it contains
	// at least one core (see internal/eval).
	Cores []graph.NodeID
	// Hub is the light-weight connector wired to every core.
	Hub graph.NodeID
	// Decoys carry exactly one isolated query keyword each, wired to
	// summary hubs — the short-but-meaningless connections BANKS-II falls
	// for.
	Decoys []graph.NodeID
}

// KB is one generated knowledge base.
type KB struct {
	Name    string
	Config  Config
	Graph   *graph.Graph
	Classes []graph.NodeID
	Topics  []graph.NodeID
	Venues  []graph.NodeID
	Planted []PlantedQuery
}

// classNames seeds the summary-class hubs; Zipf assignment makes "human"
// the 2M-in-edge-style superhub of §IV-A.
var classNames = []string{
	"human", "research article", "scholarly work", "city", "organization",
	"software", "book", "film", "protein", "gene", "taxon", "company",
	"university", "award", "event", "concept",
}

// Generate builds the knowledge base described by cfg. Generation is fully
// deterministic in cfg.Seed.
func Generate(cfg Config) *KB {
	cfg = cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := NewVocab(cfg.VocabSize, rng)
	// Size the builder once: step 5 tops the edges up to targetEdges, and
	// no node adds more than six edges before it.
	targetEdges := int(float64(cfg.Nodes) * cfg.AvgDegree)
	b := graph.NewBuilderSize(cfg.Nodes+plantedNodes, max(targetEdges, 6*cfg.Nodes)+plantedEdges)
	kb := &KB{Name: cfg.Name, Config: cfg}

	relInstanceOf := b.Rel("instance of")
	relSubclassOf := b.Rel("subclass of")
	relMainTopic := b.Rel("main topic")
	relPublishedIn := b.Rel("published in")
	relAuthor := b.Rel("author")
	relCites := b.Rel("cites")
	relPartOf := b.Rel("part of")
	relRelated := b.Rel("related to")

	// 1. Class nodes. Labels are category-ish and deliberately generic.
	for i := 0; i < cfg.Classes; i++ {
		var label string
		if i < len(classNames) {
			label = classNames[i]
		} else {
			label = "class " + vocab.Word(vocab.draw(rng))
		}
		kb.Classes = append(kb.Classes, b.AddNode(label, ""))
	}
	// Shallow class taxonomy.
	for i := 1; i < len(kb.Classes); i++ {
		b.AddEdge(kb.Classes[i], kb.Classes[rng.Intn(i)], relSubclassOf)
	}

	// 2. Topic nodes: 1–2 head-vocabulary words ("data mining"-like).
	var words []int32 // word indices of the topic label being built
	for i := 0; i < cfg.Topics; i++ {
		words = vocab.drawN(words[:0], 1+rng.Intn(2), rng)
		v := b.AddNode(vocab.join(words), "field of study")
		kb.Topics = append(kb.Topics, v)
		b.AddEdge(v, kb.Classes[len(kb.Classes)-1], relInstanceOf) // concept
	}

	// 3. Venue nodes (conferences/journals): mid-size summary hubs.
	for i := 0; i < cfg.Venues; i++ {
		label := fmt.Sprintf("%s conference %d", vocab.Word(vocab.draw(rng)), i)
		v := b.AddNode(label, "academic venue")
		kb.Venues = append(kb.Venues, v)
		b.AddEdge(v, kb.Classes[1%len(kb.Classes)], relInstanceOf)
	}

	// 4. Entities. Their edges to classes, topics and venues follow
	// zipfIndex, which is what makes those summary hubs; an edge to another
	// entity picks one of the earlier entities uniformly. The loop only
	// draws each entity's label and description words; the strings are
	// joined beside step 5, which needs the RNG but not the text.
	entityStart := b.NumNodes()
	nEntities := cfg.Nodes - entityStart
	// entity returns one of the first k entities, uniformly.
	entity := func(k int) graph.NodeID { return graph.NodeID(entityStart + rng.Intn(k)) }
	text := make([]int32, 0, 6*nEntities) // word indices: 3 label and 2.5 description words on average
	ends := make([]int, 2*nEntities)      // entity i's label ends at ends[2i], its description at ends[2i+1]
	for i := 0; i < nEntities; i++ {
		text = vocab.drawN(text, 2+rng.Intn(3), rng)
		ends[2*i] = len(text)
		text = vocab.drawN(text, rng.Intn(6), rng)
		ends[2*i+1] = len(text)
		v := graph.NodeID(entityStart + i)

		// instance-of with Zipf over classes: class 0 ("human") dominates.
		b.AddEdge(v, kb.Classes[zipfIndex(rng, len(kb.Classes))], relInstanceOf)

		kind := rng.Float64()
		switch {
		case kind < 0.45: // article-like
			for t := 0; t < 1+rng.Intn(2); t++ {
				b.AddEdge(v, kb.Topics[zipfIndex(rng, len(kb.Topics))], relMainTopic)
			}
			b.AddEdge(v, kb.Venues[zipfIndex(rng, len(kb.Venues))], relPublishedIn)
			if i > 0 {
				b.AddEdge(v, entity(i), relCites)
				b.AddEdge(v, entity(i), relAuthor)
			}
		case kind < 0.7: // person-like
			if i > 0 {
				b.AddEdge(v, entity(i), relRelated)
			}
		default: // thing-like
			if i > 0 {
				b.AddEdge(v, entity(i), relPartOf)
			}
		}
	}

	texts := make([]string, len(ends))
	var joining sync.WaitGroup
	joining.Add(1)
	go func() {
		defer joining.Done()
		start := 0
		for j, end := range ends {
			texts[j] = vocab.join(text[start:end])
			start = end
		}
	}()

	// 5. Extra entity-to-entity edges up to the degree budget.
	rels := []graph.RelID{relRelated, relCites, relPartOf}
	for edges := b.NumEdges(); edges < targetEdges; edges++ {
		from := entity(nEntities)
		to := entity(nEntities)
		if from == to {
			continue
		}
		b.AddEdge(from, to, rels[rng.Intn(len(rels))])
	}

	joining.Wait()
	for i := 0; i < nEntities; i++ {
		b.AddNode(texts[2*i], texts[2*i+1])
	}

	// 6. Effectiveness planting.
	if cfg.PlantEffectiveness {
		kb.Planted = plantAll(b, vocab, rng, kb, relRelated, relInstanceOf, relPublishedIn)
	}

	g, err := b.Build()
	if err != nil {
		// Generation only adds edges between nodes it created; failure here
		// is a programming error, not an input error.
		panic(fmt.Sprintf("gen: %v", err))
	}
	kb.Graph = g
	return kb
}

// zipfIndex samples a head-heavy index in [0,n). It stands in for a Zipf
// law (P(i) ∝ 1/(i+1)) with an exponential draw of mean n/5, redrawn while
// it falls past the end: a rejection loop, cheap and adequately skewed.
func zipfIndex(rng *rand.Rand, n int) int {
	for {
		x := int(float64(n) * (rng.ExpFloat64() / 5))
		if x < n {
			return x
		}
	}
}
