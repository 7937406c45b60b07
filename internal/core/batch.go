package core

import (
	"fmt"
	"time"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/trace"
)

// MaxBatchQueries bounds the number of queries one state can multiplex: the
// owner-group attribution packs one bit per query into a byte (see gfid).
const MaxBatchQueries = 8

// BatchQuery is one member of a shared-frontier batch: a prepared query
// plus the per-query knobs that stay exact per query (topK, maxLevel and
// level-cover are evaluated against the query's own column group). Knobs
// that shape the shared expansion — α-derived activation levels, λ, thread
// count, kernel — live in the batch's Params and must be common to all
// members; the engine's batcher only coalesces queries that agree on them.
type BatchQuery struct {
	Terms   []string
	Sources [][]graph.NodeID
	// TopK is k for this query (default 20).
	TopK int
	// MaxLevel bounds this query's BFS depth (default 32).
	MaxLevel int
	// DisableLevelCover skips the §V-C pruning for this query's answers.
	DisableLevelCover bool
}

// BatchInput is a set of prepared queries multiplexed into one bottom-up
// expansion over the same graph, weights and activation levels.
type BatchInput struct {
	G       *graph.Graph
	Weights []float64
	Levels  []uint8 // minimum activation levels for the batch's shared α
	Queries []BatchQuery
}

// Validate rejects structurally impossible batches.
func (b *BatchInput) Validate() error {
	if b.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	n := b.G.NumNodes()
	if len(b.Weights) != n || len(b.Levels) != n {
		return fmt.Errorf("core: weights/levels sized %d/%d, want %d", len(b.Weights), len(b.Levels), n)
	}
	if len(b.Queries) == 0 {
		return fmt.Errorf("core: batch has no queries")
	}
	if len(b.Queries) > MaxBatchQueries {
		return fmt.Errorf("core: %d queries exceeds batch maximum %d", len(b.Queries), MaxBatchQueries)
	}
	cols := 0
	for qi := range b.Queries {
		bq := &b.Queries[qi]
		q := len(bq.Sources)
		if q == 0 {
			return fmt.Errorf("core: batch query %d has no keywords", qi)
		}
		if len(bq.Terms) != q {
			return fmt.Errorf("core: batch query %d has %d terms for %d source sets", qi, len(bq.Terms), q)
		}
		for i, src := range bq.Sources {
			if len(src) == 0 {
				return fmt.Errorf("core: batch query %d keyword %q matches no nodes", qi, bq.Terms[i])
			}
			for _, v := range src {
				if v < 0 || int(v) >= n {
					return fmt.Errorf("core: source node %d out of range", v)
				}
			}
		}
		cols += q
	}
	if cols > MaxKeywords {
		return fmt.Errorf("core: batch spans %d keyword columns; maximum is %d", cols, MaxKeywords)
	}
	return nil
}

// prepareBatch lays the batch out as column groups over a single flattened
// matrix and runs the Initialization phase. The flattened term/source
// buffers are reused across batches so a warm state prepares without
// allocating.
func (s *state) prepareBatch(bin BatchInput, p Params, pool *parallel.Pool) {
	terms := s.batchTerms[:0]
	sources := s.batchSources[:0]
	for qi := range bin.Queries {
		terms = append(terms, bin.Queries[qi].Terms...)
		sources = append(sources, bin.Queries[qi].Sources...)
	}
	s.batchTerms, s.batchSources = terms, sources
	in := Input{G: bin.G, Weights: bin.Weights, Levels: bin.Levels, Terms: terms, Sources: sources}
	s.prepareShared(in, p, pool)
	s.groups = s.groupsBuf[:len(bin.Queries)]
	off := 0
	for qi := range bin.Queries {
		bq := &bin.Queries[qi]
		gr := &s.groups[qi]
		gr.off = off
		gr.q = len(bq.Sources)
		gr.mask = allMask(gr.q) << uint(off)
		gr.topK = bq.TopK
		if gr.topK <= 0 {
			gr.topK = 20
		}
		gr.maxLevel = bq.MaxLevel
		if gr.maxLevel <= 0 || gr.maxLevel > 250 {
			gr.maxLevel = 32
		}
		gr.noLevelCover = bq.DisableLevelCover
		off += gr.q
	}
	s.resetGroupRuntime(bin.G.NumNodes())
	s.initSources()
}

// dropBatchRefs releases the batch's graph and source references so a
// pooled state does not pin them between queries; the buffers' capacity is
// kept for the next batch.
func (s *state) dropBatchRefs() {
	s.in = Input{}
	clear(s.batchTerms)
	clear(s.batchSources)
	s.batchTerms = s.batchTerms[:0]
	s.batchSources = s.batchSources[:0]
}

// BottomUpBatch runs parameter resolution, batch preparation and the shared
// bottom-up stage only. Like BottomUp it is allocation-free on a warm state
// and exists for kernel benchmarks and allocation guards; SearchBatch is
// the real entry point.
func (ss *SearchState) BottomUpBatch(bin BatchInput, p Params) error {
	p = p.Defaults()
	if err := bin.Validate(); err != nil {
		return err
	}
	ss.ensurePool(p.Threads)
	s := &ss.st
	s.buf = &ss.buf
	ss.buf.Reset()

	t0 := trace.Now()
	s.prepareBatch(bin, p, ss.pool)
	t1 := trace.Now()
	s.prof.Phases[PhaseInit] = time.Duration(t1 - t0)
	ss.buf.Record(0, trace.KindInit, t0, t1, -1, 0, int64(len(s.batchSources)), 0)
	_, err := s.bottomUp()
	ss.buf.Record(0, trace.KindBottomUp, t0, trace.Now(), -1, 0, s.prof.FrontierTotal, s.prof.EdgesScanned)
	return err
}

// SearchBatch multiplexes the batch's queries through one shared bottom-up
// expansion, then runs the top-down stage per column group. Results are
// positional (result i answers Queries[i]) and bit-identical to running
// each query alone through Search with the same shared Params and per-query
// knobs — the batch only amortizes traversal work, it never changes
// answers.
func (ss *SearchState) SearchBatch(bin BatchInput, p Params) ([]*Result, error) {
	p = p.Defaults()
	if err := ss.BottomUpBatch(bin, p); err != nil {
		ss.st.dropBatchRefs()
		return nil, err
	}
	s := &ss.st

	t0 := trace.Now()
	answers := make([][]*Answer, len(s.groups))
	for gi := range s.groups {
		g0 := trace.Now()
		a, err := s.topDownGroup(&s.groups[gi])
		if err != nil {
			s.dropBatchRefs()
			return nil, err
		}
		answers[gi] = a
		// Per-group extraction span: this work belongs to exactly one
		// member query, unlike the shared bottom-up spans.
		ss.buf.Record(0, trace.KindTopDown, g0, trace.Now(), -1, 1<<uint(gi),
			int64(len(a)), int64(len(s.groups[gi].centrals)))
	}
	s.prof.Phases[PhaseTopDown] = time.Duration(trace.Now() - t0)

	out := make([]*Result, len(s.groups))
	for gi := range s.groups {
		gr := &s.groups[gi]
		out[gi] = &Result{
			Answers:           answers[gi],
			DepthD:            gr.depth,
			CentralCandidates: len(gr.centrals),
			// The profile describes the shared run; every member reports it,
			// except for the truncation count, which is the member's own.
			Profile: s.prof,
		}
		out[gi].Profile.TruncatedGraphs = gr.truncated
	}
	s.dropBatchRefs()
	return out, nil
}
