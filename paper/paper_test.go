package paper_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wikisearch"
	"wikisearch/dataset"
	"wikisearch/internal/text"
	"wikisearch/paper"
)

// paperGraph builds the Fig. 1 scenario: query languages around a "Query
// language" hub, keywords XML / RDF / SQL.
func paperGraph(t testing.TB) *wikisearch.Graph {
	t.Helper()
	b := wikisearch.NewBuilder()
	fql := b.AddNode("Facebook Query Language", "")
	sql := b.AddNode("SQL", "query language for relational databases")
	hub := b.AddNode("Query language", "")
	sparql := b.AddNode("SPARQL query language for RDF", "")
	s11 := b.AddNode("SPARQL 1.1", "")
	rdfql := b.AddNode("RDF query language", "")
	xquery := b.AddNode("XQuery", "XML query language")
	xpath3 := b.AddNode("XPath 3", "")
	xpath := b.AddNode("XPath", "XML path language")
	xpath2 := b.AddNode("XPath 2", "")
	b.AddEdgeNamed(fql, hub, "instance of")
	b.AddEdgeNamed(sql, hub, "instance of")
	b.AddEdgeNamed(sparql, hub, "instance of")
	b.AddEdgeNamed(s11, sparql, "version of")
	b.AddEdgeNamed(rdfql, sparql, "related to")
	b.AddEdgeNamed(rdfql, hub, "instance of")
	b.AddEdgeNamed(xquery, hub, "instance of")
	b.AddEdgeNamed(xpath3, xquery, "related to")
	b.AddEdgeNamed(xpath, xquery, "related to")
	b.AddEdgeNamed(xpath, hub, "instance of")
	b.AddEdgeNamed(xpath2, xpath, "version of")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestEngine(t testing.TB) *wikisearch.Engine {
	t.Helper()
	eng, err := wikisearch.NewEngine(paperGraph(t), wikisearch.EngineOptions{Threads: 2, DistanceSamplePairs: 200})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// equivalenceQueries derives n randomized keyword queries from the
// engine's own node labels, so most of them actually match terms.
func equivalenceQueries(t *testing.T, e *wikisearch.Engine, n int) []wikisearch.Query {
	t.Helper()
	g := e.Graph()
	rng := rand.New(rand.NewSource(99))
	qs := make([]wikisearch.Query, 0, n)
	for len(qs) < n {
		var words []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			v := wikisearch.NodeID(rng.Intn(g.NumNodes()))
			terms := text.Normalize(g.Label(v))
			if len(terms) > 0 {
				words = append(words, terms[rng.Intn(len(terms))])
			}
		}
		if len(words) == 0 {
			continue
		}
		text := ""
		for i, w := range words {
			if i > 0 {
				text += " "
			}
			text += w
		}
		qs = append(qs, wikisearch.Query{Text: text, TopK: 1 + rng.Intn(5)})
	}
	return qs
}

// canonicalAnswers returns res's answers with each answer's nodes sorted by
// id and its edges by (from, to, relation), so answers that differ only in
// extraction order compare equal under reflect.DeepEqual. Everything else
// — depth, score, labels, weights, keyword lists, hit levels and the edges'
// keyword masks — must match exactly.
func canonicalAnswers(res *wikisearch.Result) []wikisearch.Answer {
	out := make([]wikisearch.Answer, len(res.Answers))
	for i, a := range res.Answers {
		a.Nodes = slices.Clone(a.Nodes)
		slices.SortFunc(a.Nodes, func(x, y wikisearch.AnswerNode) int { return cmp.Compare(x.ID, y.ID) })
		a.Edges = slices.Clone(a.Edges)
		slices.SortFunc(a.Edges, func(x, y wikisearch.AnswerEdge) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To), cmp.Compare(x.Rel, y.Rel))
		})
		out[i] = a
	}
	return out
}

// TestSearchVariantsAgree: the paper's Central Graph comparators,
// CPU-Par-d and GPU-Par, answer exactly as Search does — same depth d,
// candidate count, answer nodes with their hit levels, and edges with
// their keyword masks — at Tnum 1 and at GOMAXPROCS, on Fig. 1's graph and
// on randomized queries over a generated knowledge base.
func TestSearchVariantsAgree(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wikisearch.NewEngine(ds.Graph, wikisearch.EngineOptions{DistanceSamplePairs: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	type searchCase struct {
		eng *wikisearch.Engine
		q   wikisearch.Query
	}
	cases := []searchCase{{newTestEngine(t), wikisearch.Query{Text: "xml rdf sql", TopK: 5}}}
	for _, q := range equivalenceQueries(t, sim, 12) {
		cases = append(cases, searchCase{sim, q})
	}
	comparators := map[string]func(context.Context, *wikisearch.Engine, wikisearch.Query) (*wikisearch.Result, error){
		"CPU-Par-d": paper.CPUParD,
		"GPU-Par":   paper.GPUPar,
	}
	compared := 0
	for _, c := range cases {
		for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
			q := c.q
			q.Threads = threads
			ref, err := c.eng.Search(context.Background(), q)
			for name, search := range comparators {
				label := fmt.Sprintf("%s %q T=%d", name, q.Text, threads)
				got, gerr := search(context.Background(), c.eng, q)
				if (err == nil) != (gerr == nil) {
					t.Fatalf("%s: Search err %v, comparator err %v", label, err, gerr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(got.Terms, ref.Terms) || got.Depth != ref.Depth || got.Candidates != ref.Candidates {
					t.Fatalf("%s: terms/d/candidates %v/%d/%d, want %v/%d/%d",
						label, got.Terms, got.Depth, got.Candidates, ref.Terms, ref.Depth, ref.Candidates)
				}
				if want, have := canonicalAnswers(ref), canonicalAnswers(got); !reflect.DeepEqual(have, want) {
					t.Fatalf("%s: answers differ:\n%+v\nwant\n%+v", label, have, want)
				}
				compared++
			}
		}
	}
	if compared < len(cases) {
		t.Fatalf("only %d comparisons ran; most queries errored", compared)
	}
}

// TestComparatorsContextCancellation: the Central Graph comparators stop on
// a cancelled context, as Search does.
func TestComparatorsContextCancellation(t *testing.T) {
	eng := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	searches := map[string]func(context.Context, *wikisearch.Engine, wikisearch.Query) (*wikisearch.Result, error){
		"CPU-Par-d": paper.CPUParD,
		"GPU-Par":   paper.GPUPar,
	}
	for name, search := range searches {
		if _, err := search(ctx, eng, wikisearch.Query{Text: "xml rdf sql"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestSearchBANKS(t *testing.T) {
	eng := newTestEngine(t)
	for _, bidi := range []bool{false, true} {
		res, err := paper.BANKS(eng, wikisearch.Query{Text: "xml rdf sql", TopK: 5}, bidi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trees) == 0 {
			t.Fatalf("bidi=%v: no trees", bidi)
		}
		if res.Trees[0].RootLabel == "" || res.Visited == 0 {
			t.Fatalf("bidi=%v: malformed result", bidi)
		}
		if len(res.Trees[0].Paths) != 3 {
			t.Fatalf("bidi=%v: %d paths, want 3", bidi, len(res.Trees[0].Paths))
		}
	}
	if _, err := paper.BANKS(eng, wikisearch.Query{Text: "", TopK: 5}, true, 0); err == nil {
		t.Fatal("BANKS accepted empty query")
	}
}

func TestSearchExactGST(t *testing.T) {
	eng := newTestEngine(t)
	res, err := paper.ExactGST(eng, wikisearch.Query{Text: "xml rdf sql", TopK: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 || res.Popped == 0 {
		t.Fatalf("result = %+v", res)
	}
	best := res.Trees[0]
	if best.RootLabel == "" || len(best.Nodes) == 0 {
		t.Fatalf("tree = %+v", best)
	}
	if len(best.Edges) != len(best.Nodes)-1 {
		t.Fatalf("not a tree: %d edges, %d nodes", len(best.Edges), len(best.Nodes))
	}
	// The exact optimum's cost is a lower bound for every returned tree.
	for _, tr := range res.Trees[1:] {
		if tr.Cost < best.Cost {
			t.Fatal("trees not cost-ordered")
		}
	}
	if _, err := paper.ExactGST(eng, wikisearch.Query{Text: "", TopK: 3}, 0); err == nil {
		t.Fatal("empty query accepted")
	}
	// 13 distinct terms exceed gst.MaxKeywords (12).
	if _, err := paper.ExactGST(eng, wikisearch.Query{Text: "xml rdf sql xpath xquery sparql facebook language version query relational path databases", TopK: 1}, 0); err == nil {
		t.Fatal("over-long GST query accepted")
	}
}
