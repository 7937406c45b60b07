package text

import (
	"fmt"
	"sort"
	"strings"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// Index is the inverted keyword index mapping each normalized term to the
// sorted list of nodes whose label or description contains it. Each query
// keyword t_i resolves through the index to its source node set T_i, which
// seeds BFS instance B_i (§III).
type Index struct {
	ids       map[string]int32
	names     []string
	postings  [][]graph.NodeID
	maxLen    int
	totalPost int
}

// BuildIndex indexes every node's label and description. Each distinct raw
// token is stop-checked and stemmed once per build (a token → term memo),
// and a node's repeated terms are dropped by stamping each term with the
// last node that posted it.
//
// Given a pool, the build splits the node range into one contiguous chunk
// per worker; each chunk indexes its nodes with its own memo and postings,
// and the merge assigns global term ids in chunk order, then in each chunk's
// first-occurrence order, and concatenates postings in chunk order. Term
// ids, names and the sorted posting lists are therefore identical for every
// worker count. Without a pool the build runs on the calling goroutine.
func BuildIndex(g *graph.Graph, pool ...*parallel.Pool) *Index {
	p := parallel.NewPool(1) // a one-worker pool never spawns a goroutine
	if len(pool) > 0 {
		p = pool[0]
	}
	n := g.NumNodes()
	k := max(1, min(p.Workers(), n))
	chunks := make([]indexChunk, k)
	p.For(k, func(c int) {
		chunks[c].build(g, c*n/k, (c+1)*n/k)
	})

	// Global ids: chunk 0's local ids are already global (its ids map and
	// names become the index's); later chunks add their new terms in
	// first-occurrence order.
	ix := &Index{ids: chunks[0].ids, names: chunks[0].names}
	size := 0
	for c := range chunks {
		ch := &chunks[c]
		ch.global = make([]int32, len(ch.names))
		for l, term := range ch.names {
			id, ok := ix.ids[term]
			if !ok {
				id = int32(len(ix.names))
				ix.ids[term] = id
				ix.names = append(ix.names, term)
			}
			ch.global[l] = id
		}
		size += len(ch.terms)
	}
	if len(ix.names) == 0 {
		return ix // nothing indexed: nil postings, like an empty Export
	}

	// Every term's postings lie contiguously in one slab, chunk by chunk:
	// each chunk's counts become its fill cursors, so its share of a term's
	// list follows the previous chunk's and the list stays sorted.
	cursor := make([]int32, len(ix.names))
	for c := range chunks {
		for l, id := range chunks[c].global {
			cursor[id] += chunks[c].counts[l]
		}
	}
	slab := make([]graph.NodeID, size)
	ix.postings = make([][]graph.NodeID, len(ix.names))
	at := int32(0)
	for id, cnt := range cursor {
		ix.postings[id] = slab[at : at+cnt : at+cnt]
		cursor[id] = at
		at += cnt
		ix.totalPost += int(cnt)
		ix.maxLen = max(ix.maxLen, int(cnt))
	}
	for c := range chunks {
		ch := &chunks[c]
		for l, id := range ch.global {
			ch.counts[l], cursor[id] = cursor[id], cursor[id]+ch.counts[l]
		}
	}
	p.For(k, func(c int) {
		chunks[c].fill(slab)
	})
	return ix
}

// indexChunk is one contiguous node range [lo, hi) of a BuildIndex, indexed
// with chunk-local term ids.
type indexChunk struct {
	lo     int
	ids    map[string]int32 // term → local id
	names  []string         // local id → term, in first-occurrence order
	counts []int32          // local id → postings; then the fill cursor
	last   []int32          // local id → last node that posted it
	global []int32          // local id → global id (set by the merge)
	// terms holds the local term id of every posting in node order, and
	// ends[v-lo] is where node v's postings end in terms.
	terms []int32
	ends  []int32
}

// build indexes nodes [lo, hi) of g.
func (ch *indexChunk) build(g *graph.Graph, lo, hi int) {
	ch.lo = lo
	ch.ids = make(map[string]int32)
	ch.ends = make([]int32, 0, hi-lo)
	memo := make(map[string]int32) // raw token → local id; -1: stopword or empty stem
	var toks []string
	for v := lo; v < hi; v++ {
		toks = appendTokens(toks[:0], g.Label(graph.NodeID(v)))
		toks = appendTokens(toks, g.Description(graph.NodeID(v)))
		for _, tok := range toks {
			id, ok := memo[tok]
			if !ok {
				id = ch.termID(tok)
				memo[tok] = id
			}
			if id < 0 || ch.last[id] == int32(v) {
				continue
			}
			ch.last[id] = int32(v)
			ch.counts[id]++
			ch.terms = append(ch.terms, id)
		}
		ch.ends = append(ch.ends, int32(len(ch.terms)))
	}
}

// termID normalises a raw token and returns its local term id, assigning
// the next one to a new term, or -1 for a stopword or an empty stem.
func (ch *indexChunk) termID(tok string) int32 {
	if IsStopword(tok) {
		return -1
	}
	term := Stem(tok)
	if term == "" {
		return -1
	}
	id, ok := ch.ids[term]
	if !ok {
		id = int32(len(ch.names))
		term = strings.Clone(term) // do not pin the lower-cased node text
		ch.ids[term] = id
		ch.names = append(ch.names, term)
		ch.counts = append(ch.counts, 0)
		ch.last = append(ch.last, -1)
	}
	return id
}

// fill writes the chunk's postings into slab at its fill cursors.
func (ch *indexChunk) fill(slab []graph.NodeID) {
	start := int32(0)
	for i, end := range ch.ends {
		v := graph.NodeID(ch.lo + i)
		for _, l := range ch.terms[start:end] {
			slab[ch.counts[l]] = v
			ch.counts[l]++
		}
		start = end
	}
}

// NumTerms returns the vocabulary size (distinct keywords after stopword
// filtering and stemming).
func (ix *Index) NumTerms() int { return len(ix.names) }

// TotalPostings returns the number of (term, node) pairs.
func (ix *Index) TotalPostings() int { return ix.totalPost }

// MaxPostingLen returns the longest posting list (most frequent keyword).
func (ix *Index) MaxPostingLen() int { return ix.maxLen }

// TermName returns the normalized term with the given id.
func (ix *Index) TermName(id int32) string { return ix.names[id] }

// LookupTerm returns the posting list for an already-normalized term. The
// returned slice is sorted ascending, aliases index storage, and must not be
// modified. Nil means the term is unknown.
func (ix *Index) LookupTerm(term string) []graph.NodeID {
	id, ok := ix.ids[term]
	if !ok {
		return nil
	}
	return ix.postings[id]
}

// Lookup normalizes a raw keyword and returns the union of posting lists of
// its normalized terms (a raw keyword like "databases" normalizes to one
// term; a phrase-like raw keyword may normalize to several).
func (ix *Index) Lookup(raw string) []graph.NodeID {
	terms := Normalize(raw)
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return ix.LookupTerm(terms[0])
	}
	set := map[graph.NodeID]struct{}{}
	for _, t := range terms {
		for _, v := range ix.LookupTerm(t) {
			set[v] = struct{}{}
		}
	}
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Frequency returns the keyword frequency of a raw keyword — the number of
// nodes containing it (the kwf columns of Table V).
func (ix *Index) Frequency(raw string) int { return len(ix.Lookup(raw)) }

// Export returns the index's term names and posting lists for
// serialization. The slices alias index storage and must not be modified.
func (ix *Index) Export() (names []string, postings [][]graph.NodeID) {
	return ix.names, ix.postings
}

// FromParts reassembles an Index from serialized term names and posting
// lists (postings must be sorted ascending, as Export produces them).
func FromParts(names []string, postings [][]graph.NodeID) (*Index, error) {
	if len(names) != len(postings) {
		return nil, fmt.Errorf("text: %d names for %d posting lists", len(names), len(postings))
	}
	ix := &Index{
		ids:      make(map[string]int32, len(names)),
		names:    names,
		postings: postings,
	}
	for i, n := range names {
		if _, dup := ix.ids[n]; dup {
			return nil, fmt.Errorf("text: duplicate term %q", n)
		}
		ix.ids[n] = int32(i)
		if len(postings[i]) > ix.maxLen {
			ix.maxLen = len(postings[i])
		}
		ix.totalPost += len(postings[i])
	}
	return ix, nil
}

// QueryTerms normalizes a whole query string into its unique keyword terms,
// preserving first-occurrence order. This defines the q BFS instances of a
// query (duplicate and stopword terms collapse).
func QueryTerms(q string) []string {
	terms := Normalize(q)
	seen := make(map[string]struct{}, len(terms))
	out := terms[:0]
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
