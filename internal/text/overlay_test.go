package text

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wikisearch/internal/graph"
)

// buildTextGraph builds a graph with the given node texts and no edges.
func buildTextGraph(t *testing.T, labels, descs []string) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := range labels {
		b.AddNode(labels[i], descs[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lookupThrough resolves a term through overlay-then-base, the way the
// engine's snapshot does.
func lookupThrough(ix *Index, ov *Overlay, term string) []graph.NodeID {
	if ov != nil {
		if p, ok := ov.Postings(term); ok {
			return p
		}
	}
	return ix.LookupTerm(term)
}

// TestOverlayMatchesRebuild mutates node text randomly and checks that every
// term in either vocabulary resolves identically through the overlay and
// through a fresh index of the final text.
func TestOverlayMatchesRebuild(t *testing.T) {
	words := []string{"database", "graph", "keyword", "search", "engine",
		"parallel", "wiki", "knowledge", "system", "query"}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			text := func() string {
				n := 1 + rng.Intn(3)
				s := ""
				for i := 0; i < n; i++ {
					if i > 0 {
						s += " "
					}
					s += words[rng.Intn(len(words))]
				}
				return s
			}
			n := 6 + rng.Intn(6)
			labels := make([]string, n)
			descs := make([]string, n)
			for i := range labels {
				labels[i], descs[i] = text(), text()
			}
			base := buildTextGraph(t, labels, descs)
			ix := BuildIndex(base)

			b := NewOverlayBuilder(ix)
			// Retext some base nodes, append some new ones.
			for i := 0; i < 4; i++ {
				v := graph.NodeID(rng.Intn(n))
				nl, nd := text(), text()
				b.NodeRetext(v, labels[v], descs[v], nl, nd)
				labels[v], descs[v] = nl, nd
			}
			for i := 0; i < 3; i++ {
				nl, nd := text(), text()
				b.NodeAdded(graph.NodeID(len(labels)), nl, nd)
				labels = append(labels, nl)
				descs = append(descs, nd)
			}
			ov := b.Build()
			fresh := BuildIndex(buildTextGraph(t, labels, descs))

			vocab := map[string]struct{}{}
			for _, w := range words {
				for _, term := range Normalize(w) {
					vocab[term] = struct{}{}
				}
			}
			for term := range vocab {
				got := lookupThrough(ix, ov, term)
				want := fresh.LookupTerm(term)
				gotC, wantC := slices.Clone(got), slices.Clone(want)
				if len(gotC) == 0 && len(wantC) == 0 {
					continue
				}
				if !slices.Equal(gotC, wantC) {
					t.Errorf("term %q: overlay %v, fresh %v", term, gotC, wantC)
				}
			}
			if got, want := ix.NumTerms()+ov.TermsDelta(), fresh.NumTerms(); got != want {
				t.Errorf("TermsDelta: overlaid vocab %d, fresh %d", got, want)
			}
			if got, want := ix.TotalPostings()+ov.PostingsDelta(), fresh.TotalPostings(); got != want {
				t.Errorf("PostingsDelta: overlaid postings %d, fresh %d", got, want)
			}
		})
	}
}

// TestOverlayUntouchedTermsFallThrough pins that terms outside the delta are
// not covered by the overlay (lookups must alias base storage).
func TestOverlayUntouchedTermsFallThrough(t *testing.T) {
	g := buildTextGraph(t, []string{"alpha database", "beta graph"}, []string{"", ""})
	ix := BuildIndex(g)
	b := NewOverlayBuilder(ix)
	b.NodeRetext(0, "alpha database", "", "alpha keyword", "")
	ov := b.Build()
	if _, covered := ov.Postings(normOne(t, "graph")); covered {
		t.Error("unaffected term covered by overlay")
	}
	if _, covered := ov.Postings(normOne(t, "database")); !covered {
		t.Error("removed term not covered by overlay")
	}
	if _, covered := ov.Postings(normOne(t, "keyword")); !covered {
		t.Error("added term not covered by overlay")
	}
	if _, covered := ov.Postings(normOne(t, "alpha")); covered {
		t.Error("term present in both old and new text should not be covered")
	}
	if ov.TermsDelta() != 0 {
		t.Errorf("TermsDelta = %d, want 0 (one term added, one emptied)", ov.TermsDelta())
	}
}

func normOne(t *testing.T, w string) string {
	t.Helper()
	terms := Normalize(w)
	if len(terms) != 1 {
		t.Fatalf("Normalize(%q) = %v, want one term", w, terms)
	}
	return terms[0]
}

// TestOverlayIncrementalBuild publishes several rounds of text changes from
// one builder. After every Build the overlay must resolve every term as a
// fresh index of the current text does, report the same statistics as a
// single Build of all changes since the base, share the merged list of
// every term the round left untouched, and leave earlier overlays intact.
func TestOverlayIncrementalBuild(t *testing.T) {
	words := []string{"database", "graph", "keyword", "search", "engine",
		"parallel", "wiki", "knowledge", "system", "query"}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			text := func() string {
				s := words[rng.Intn(len(words))]
				for i := rng.Intn(3); i > 0; i-- {
					s += " " + words[rng.Intn(len(words))]
				}
				return s
			}
			n := 8 + rng.Intn(8)
			labels := make([]string, n)
			descs := make([]string, n)
			for i := range labels {
				labels[i], descs[i] = text(), text()
			}
			ix := BuildIndex(buildTextGraph(t, labels, descs))
			inc := NewOverlayBuilder(ix)
			var prev *Overlay
			var prevPostings map[string][]graph.NodeID
			type change struct {
				v                      graph.NodeID
				oldL, oldD, newL, newD string
				added                  bool
			}
			var all []change
			for round := 0; round < 6; round++ {
				for i := rng.Intn(4); i > 0; i-- {
					if rng.Intn(3) == 0 {
						c := change{v: graph.NodeID(len(labels)), newL: text(), newD: text(), added: true}
						inc.NodeAdded(c.v, c.newL, c.newD)
						labels, descs = append(labels, c.newL), append(descs, c.newD)
						all = append(all, c)
						continue
					}
					v := graph.NodeID(rng.Intn(len(labels)))
					c := change{v: v, oldL: labels[v], oldD: descs[v], newL: text(), newD: text()}
					inc.NodeRetext(v, c.oldL, c.oldD, c.newL, c.newD)
					labels[v], descs[v] = c.newL, c.newD
					all = append(all, c)
				}
				ov := inc.Build()

				once := NewOverlayBuilder(ix)
				for _, c := range all {
					if c.added {
						once.NodeAdded(c.v, c.newL, c.newD)
					} else {
						once.NodeRetext(c.v, c.oldL, c.oldD, c.newL, c.newD)
					}
				}
				want := once.Build()
				if ov.NumAffected() != want.NumAffected() || ov.TermsDelta() != want.TermsDelta() ||
					ov.PostingsDelta() != want.PostingsDelta() || ov.MaxPostingLen() != want.MaxPostingLen() {
					t.Fatalf("round %d: stats (%d,%d,%d,%d), one-shot build (%d,%d,%d,%d)", round,
						ov.NumAffected(), ov.TermsDelta(), ov.PostingsDelta(), ov.MaxPostingLen(),
						want.NumAffected(), want.TermsDelta(), want.PostingsDelta(), want.MaxPostingLen())
				}
				fresh := BuildIndex(buildTextGraph(t, labels, descs))
				for _, w := range words {
					term := normOne(t, w)
					got, exp := lookupThrough(ix, ov, term), fresh.LookupTerm(term)
					if (len(got) != 0 || len(exp) != 0) && !slices.Equal(got, exp) {
						t.Fatalf("round %d term %q: overlay %v, fresh %v", round, term, got, exp)
					}
				}
				if prev != nil {
					for term, p := range prevPostings {
						if got, _ := prev.Postings(term); !slices.Equal(got, p) {
							t.Fatalf("round %d: earlier overlay's %q changed", round, term)
						}
					}
				}
				prev, prevPostings = ov, map[string][]graph.NodeID{}
				for _, w := range words {
					term := normOne(t, w)
					if p, ok := ov.Postings(term); ok {
						prevPostings[term] = slices.Clone(p)
					}
				}
			}
		})
	}
}

// TestOverlayBuildSharesUntouchedTerms pins the incremental Build: a term
// no change touched since the last Build keeps the previous Overlay's merged
// list (same storage), and a Build with nothing pending returns the
// previous Overlay itself.
func TestOverlayBuildSharesUntouchedTerms(t *testing.T) {
	g := buildTextGraph(t, []string{"alpha database", "beta graph"}, []string{"", ""})
	ix := BuildIndex(g)
	b := NewOverlayBuilder(ix)
	b.NodeRetext(0, "alpha database", "", "alpha keyword", "")
	first := b.Build()
	if again := b.Build(); again != first {
		t.Fatal("Build with nothing pending rebuilt the overlay")
	}
	b.NodeAdded(2, "beta", "")
	second := b.Build()
	p1, _ := first.Postings(normOne(t, "keyword"))
	p2, ok := second.Postings(normOne(t, "keyword"))
	if !ok || &p1[0] != &p2[0] {
		t.Fatal("untouched term's merged list was rebuilt")
	}
	if p, ok := second.Postings(normOne(t, "beta")); !ok || !slices.Equal(p, []graph.NodeID{1, 2}) {
		t.Fatalf("touched term postings %v, want [1 2]", p)
	}
	if _, ok := first.Postings(normOne(t, "beta")); ok {
		t.Fatal("later changes leaked into an earlier overlay")
	}
}
