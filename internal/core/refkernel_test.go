package core

import "wikisearch/internal/graph"

// newReferenceState returns a SearchState whose solo searches expand with
// expandRefChunk instead of the flattened kernel. prepareShared binds the
// phase bodies only while they are unbound, so the override made here holds
// for every search on the state.
func newReferenceState() *SearchState {
	ss := NewSearchState()
	s := &ss.st
	s.bindPhases()
	s.expandFn = s.expandRefChunk
	return ss
}

// searchReference is Search on a fresh reference-kernel state.
func searchReference(in Input, p Params) (*Result, error) {
	ss := newReferenceState()
	defer ss.Close()
	return ss.Search(in, p)
}

// expandRefChunk is the per-keyword-column reference kernel — the shape the
// paper's pseudocode suggests and this engine originally shipped: each
// active column walks the closure-based adjacency separately. Kept as the
// equivalence baseline and the benchmark comparison point; it must return
// byte-identical results to expandChunk.
func (s *state) expandRefChunk(w, start, end int) {
	sc := &s.scratch[w]
	l := s.level
	q := s.m.Q()
	centralAt := s.gr.centralAt
	for fi := start; fi < end; fi++ {
		vf := graph.NodeID(s.frontier[fi])
		if centralAt[vf] != notCentral {
			continue
		}
		if int(s.in.Levels[vf]) > l {
			s.markFrontier(sc, vf)
			continue
		}
		for i := 0; i < q; i++ {
			if int(s.m.Get(vf, i)) > l {
				continue // not (yet) a frontier of B_i
			}
			// This kernel genuinely re-walks the adjacency per column, so
			// charging the degree per active column is its true scan count.
			sc.edges += int64(s.in.G.Degree(vf))
			s.in.G.ForEachNeighbor(vf, func(vn graph.NodeID, _ graph.RelID, _ bool) {
				if s.m.Get(vn, i) != Infinity {
					return // already hit in B_i
				}
				if s.m.KeywordMask(vn) == 0 && int(s.in.Levels[vn]) > l+1 {
					s.markFrontier(sc, vf)
					return
				}
				s.m.MarkHit(vn, i, uint8(l+1))
				s.markFrontier(sc, vn)
			})
		}
	}
}
