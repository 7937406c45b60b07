package wikisearch

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"wikisearch/dataset"
)

// metamorphicEngine is a tiny-sim engine and a mix of randomized and
// planted queries with two or more keywords.
func metamorphicEngine(t *testing.T) (*Engine, []Query) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Graph, EngineOptions{Threads: 2, DistanceSamplePairs: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, p := range ds.Planted {
		qs = append(qs, Query{Text: strings.Join(p.Keywords, " "), TopK: 5})
	}
	for _, q := range equivalenceQueries(t, eng, 40) {
		if strings.Contains(q.Text, " ") {
			qs = append(qs, q)
		}
	}
	return eng, qs
}

// TestKeywordPermutationInvariant: a query is a set of keywords (§III), so
// writing its keywords in another order leaves its ranked answers
// unchanged, once each answer's per-keyword fields are keyed by term rather
// than by position.
func TestKeywordPermutationInvariant(t *testing.T) {
	eng, qs := metamorphicEngine(t)
	checked := 0
	for _, q := range qs {
		words := strings.Fields(q.Text)
		reversed := slices.Clone(words)
		slices.Reverse(reversed)
		rotated := append(slices.Clone(words[1:]), words[0])
		for _, threads := range []int{1, 2} {
			q.Threads = threads
			want, err := eng.Search(context.Background(), q)
			if err != nil {
				continue // a keyword matches no node: nothing to permute
			}
			for _, perm := range [][]string{reversed, rotated} {
				p := q
				p.Text = strings.Join(perm, " ")
				got, err := eng.Search(context.Background(), p)
				if err != nil {
					t.Fatalf("%q answered, %q failed: %v", q.Text, p.Text, err)
				}
				if got.Depth != want.Depth || got.Candidates != want.Candidates ||
					!reflect.DeepEqual(byTerm(got), byTerm(want)) {
					t.Fatalf("t%d: %q and %q answer differently", threads, q.Text, p.Text)
				}
				checked++
			}
		}
	}
	t.Logf("%d permuted searches", checked)
	if checked < 20 {
		t.Fatalf("only %d permuted searches answered", checked)
	}
}

// byTerm copies r's answers with every per-keyword field in term order:
// HitLevels indexed by the sorted terms, Keywords sorted.
func byTerm(r *Result) []Answer {
	order := make([]int, len(r.Terms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.Terms[order[a]] < r.Terms[order[b]] })
	out := make([]Answer, len(r.Answers))
	for i, a := range r.Answers {
		a.Nodes = slices.Clone(a.Nodes)
		for j := range a.Nodes {
			n := &a.Nodes[j]
			hit := make([]int, len(order))
			for k, o := range order {
				hit[k] = n.HitLevels[o]
			}
			n.HitLevels = hit
			n.Keywords = slices.Sorted(slices.Values(n.Keywords))
		}
		a.Edges = slices.Clone(a.Edges)
		for j := range a.Edges {
			a.Edges[j].Keywords = slices.Sorted(slices.Values(a.Edges[j].Keywords))
		}
		out[i] = a
	}
	return out
}

// TestTopKPrefix: when the top-k and top-(k+1) searches stop at the same
// depth they rank the same Central Graphs (Lemma V.1), so the top-k answers
// are the first k of the top-(k+1) answers.
func TestTopKPrefix(t *testing.T) {
	eng, qs := metamorphicEngine(t)
	checked := 0
	for _, q := range qs {
		for _, threads := range []int{1, 2} {
			q.Threads = threads
			var prev *Result
			for k := 1; k <= 6; k++ {
				q.TopK = k
				r, err := eng.Search(context.Background(), q)
				if err != nil {
					break // a keyword matches no node
				}
				if prev != nil && prev.Depth == r.Depth {
					n := min(k-1, len(r.Answers))
					if len(prev.Answers) != n || !reflect.DeepEqual(prev.Answers, r.Answers[:n]) {
						t.Fatalf("t%d %q: top-%d is not a prefix of top-%d at depth %d", threads, q.Text, k-1, k, r.Depth)
					}
					checked++
				}
				prev = r
			}
		}
	}
	t.Logf("%d same-depth pairs", checked)
	if checked < 20 {
		t.Fatalf("only %d same-depth pairs", checked)
	}
}
