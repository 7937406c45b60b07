package core

// The naive stage-two model: the map-based top-down stage this engine
// shipped before stage two was rewritten to score first and assemble last.
// It extracts one keyword at a time through the closure-based adjacency
// walk, keeps nodes, path masks and edge dedup in Go maps, rescans the edge
// list per node in level-cover, and builds a full Answer for every Central
// Node before ranking. It is slow and obviously faithful to §V-C, and it
// pins the MaxGraphNodes cap rule: which nodes a capped extraction admits is
// defined by this walk's discovery order. TestModelCrossCheck holds the
// production stage two to it with reflect.DeepEqual on complete answer
// lists.

import (
	"math/bits"
	"slices"

	"wikisearch/internal/graph"
)

// modelExtraction is one Central Graph recovered by the model.
type modelExtraction struct {
	central   graph.NodeID
	depth     int
	order     []graph.NodeID          // insertion order, central first
	onPaths   map[graph.NodeID]uint64 // keyword-path membership masks
	edges     []AnswerEdge            // deduplicated expansion steps
	edgeIndex map[modelEdgeKey]int    // (from,to,rel,forward) → edges index
	truncated bool
}

type modelEdgeKey struct {
	from, to graph.NodeID
	rel      graph.RelID
	forward  bool
}

type modelWorkItem struct {
	node graph.NodeID
	bits uint64
}

func newModelExtraction(central graph.NodeID, all uint64) *modelExtraction {
	return &modelExtraction{
		central:   central,
		order:     []graph.NodeID{central},
		onPaths:   map[graph.NodeID]uint64{central: all},
		edgeIndex: map[modelEdgeKey]int{},
	}
}

// addEdge records one expansion step parent → child, merging keyword masks
// of duplicate steps.
func (ex *modelExtraction) addEdge(from, to graph.NodeID, rel graph.RelID, forward bool, bits uint64) {
	k := modelEdgeKey{from, to, rel, forward}
	if i, ok := ex.edgeIndex[k]; ok {
		ex.edges[i].Keywords |= bits
		return
	}
	ex.edgeIndex[k] = len(ex.edges)
	ex.edges = append(ex.edges, AnswerEdge{From: from, To: to, Rel: rel, Forward: forward, Keywords: bits})
}

// admit handles parent vn of keyword bit on a popped node: known nodes gain
// the bit, unknown ones are admitted under the cap. It reports whether vn
// must be (re)visited for the bit.
func (ex *modelExtraction) admit(vn graph.NodeID, bit uint64, maxNodes int) bool {
	prev, known := ex.onPaths[vn]
	if bit&^prev == 0 {
		return false
	}
	if !known {
		if len(ex.order) >= maxNodes {
			ex.truncated = true
			return false
		}
		ex.order = append(ex.order, vn)
	}
	ex.onPaths[vn] = prev | bit
	return true
}

// sourceContains is every node's keyword mask over all of in's columns,
// read from the source lists: the model never derives containment from the
// matrix it checks.
func sourceContains(in Input) []uint64 {
	contains := make([]uint64, in.G.NumNodes())
	for i, src := range in.Sources {
		for _, v := range src {
			contains[v] |= 1 << uint(i)
		}
	}
	return contains
}

// modelExtract recovers the Central Graph centered at vc by the
// hitting-level heuristics of Theorem V.4, one keyword at a time; contains
// is sourceContains(s.in).
func modelExtract(s *state, contains []uint64, vc graph.NodeID) *modelExtraction {
	q := len(s.in.Sources)
	ex := newModelExtraction(vc, allMask(q))
	for i := 0; i < q; i++ {
		if h := s.m.Get(vc, i); h != Infinity && int(h) > ex.depth {
			ex.depth = int(h)
		}
	}
	work := []modelWorkItem{{vc, allMask(q)}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vf := it.node
		af := int(s.in.Levels[vf])
		fHasKeywords := contains[vf] != 0
		for i := 0; i < q; i++ {
			if it.bits&(1<<uint(i)) == 0 {
				continue
			}
			hif := int(s.m.Get(vf, i))
			if hif == 0 {
				continue // keyword source
			}
			s.in.G.ForEachNeighbor(vf, func(vn graph.NodeID, rel graph.RelID, out bool) {
				hin := s.m.Get(vn, i)
				if hin == Infinity {
					return
				}
				an := int(s.in.Levels[vn])
				target := 1 + max(an, int(hin))
				if !fHasKeywords {
					target = 1 + max(target-1, af-1)
				}
				if hif != target {
					return
				}
				if ca := s.gr.centralAt[vn]; ca != notCentral && int(ca) <= hif-1 {
					return // central before the expansion level: never expanded
				}
				bit := uint64(1) << uint(i)
				ex.addEdge(vn, vf, rel, !out, bit)
				if ex.admit(vn, bit, s.p.MaxGraphNodes) {
					work = append(work, modelWorkItem{vn, bit})
				}
			})
		}
	}
	return ex
}

// modelRecover is modelExtract for CPU-Par-d: a walk over recorded parents.
func modelRecover(s *dynState, vc graph.NodeID) *modelExtraction {
	q := len(s.in.Sources)
	ex := newModelExtraction(vc, allMask(q))
	for i := 0; i < q; i++ {
		if h, ok := s.hitLevel(vc, i); ok && int(h) > ex.depth {
			ex.depth = int(h)
		}
	}
	work := []modelWorkItem{{vc, allMask(q)}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		vf := it.node
		for i := 0; i < q; i++ {
			if it.bits&(1<<uint(i)) == 0 || s.nodes[vf].rec == nil {
				continue
			}
			bit := uint64(1) << uint(i)
			for _, p := range s.nodes[vf].rec.parents[i] {
				ex.addEdge(p.node, vf, p.rel, p.forward, bit)
				if ex.admit(p.node, bit, s.p.MaxGraphNodes) {
					work = append(work, modelWorkItem{p.node, bit})
				}
			}
		}
	}
	return ex
}

// modelEnv is the per-query context the model prunes and scores with.
type modelEnv struct {
	q            int
	contains     func(v graph.NodeID) uint64 // query-local keyword mask
	weights      []float64
	lambda       float64
	row          func(v graph.NodeID, dst []uint8) // hitting levels of v
	noLevelCover bool
}

// modelLevelCover is the level-cover strategy of §V-C on maps; it returns
// the kept nodes in extraction order.
func (env *modelEnv) modelLevelCover(ex *modelExtraction) []graph.NodeID {
	all := allMask(env.q)
	type kwNode struct {
		v    graph.NodeID
		mask uint64
	}
	covered := env.contains(ex.central)
	var kws []kwNode
	for _, v := range ex.order {
		if v == ex.central {
			continue
		}
		if m := env.contains(v); m != 0 {
			kws = append(kws, kwNode{v, m})
		}
	}
	slices.SortStableFunc(kws, func(a, b kwNode) int {
		return bits.OnesCount64(b.mask) - bits.OnesCount64(a.mask)
	})
	keptKw := map[graph.NodeID]struct{}{}
	for lo := 0; lo < len(kws); {
		cnt := bits.OnesCount64(kws[lo].mask)
		hi := lo
		for hi < len(kws) && bits.OnesCount64(kws[hi].mask) == cnt {
			hi++
		}
		if covered == all {
			break // prune all remaining (lower) levels
		}
		levelCoverage := covered
		for _, kn := range kws[lo:hi] {
			if kn.mask&^covered != 0 {
				keptKw[kn.v] = struct{}{}
				levelCoverage |= kn.mask
			}
		}
		covered = levelCoverage
		lo = hi
	}
	kept := map[graph.NodeID]struct{}{ex.central: {}}
	queue := []graph.NodeID{ex.central}
	for v := range keptKw {
		if _, ok := kept[v]; !ok {
			kept[v] = struct{}{}
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range ex.edges {
			if e.From != v {
				continue
			}
			if _, ok := kept[e.To]; !ok {
				kept[e.To] = struct{}{}
				queue = append(queue, e.To)
			}
		}
	}
	var out []graph.NodeID
	for _, v := range ex.order {
		if _, ok := kept[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// modelCandidate is a pruned, scored, fully built Central Graph.
type modelCandidate struct {
	answer  *Answer
	nodeSet map[graph.NodeID]struct{}
	covers  bool
	rank    int
}

// modelAssemble prunes an extraction and builds its scored Answer.
func (env *modelEnv) modelAssemble(ex *modelExtraction, rank int) *modelCandidate {
	kept := ex.order
	if !env.noLevelCover {
		kept = env.modelLevelCover(ex)
	}
	q := env.q
	nodes := make([]AnswerNode, 0, len(kept))
	ids := make(map[graph.NodeID]struct{}, len(kept))
	for _, v := range kept {
		row := make([]uint8, q)
		env.row(v, row)
		nodes = append(nodes, AnswerNode{ID: v, Contains: env.contains(v), OnPaths: ex.onPaths[v], HitLevels: row})
		ids[v] = struct{}{}
	}
	central := ex.central
	slices.SortFunc(nodes, func(a, b AnswerNode) int {
		switch {
		case a.ID == b.ID:
			return 0
		case a.ID == central:
			return -1
		case b.ID == central:
			return 1
		case a.ID < b.ID:
			return -1
		}
		return 1
	})
	var sumW float64
	for _, n := range nodes {
		sumW += env.weights[n.ID]
	}
	edges := make([]AnswerEdge, 0, len(ex.edges))
	for _, e := range ex.edges {
		if _, ok := ids[e.From]; !ok {
			continue
		}
		if _, ok := ids[e.To]; !ok {
			continue
		}
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b AnswerEdge) int {
		switch {
		case a.From != b.From:
			return int(a.From) - int(b.From)
		case a.To != b.To:
			return int(a.To) - int(b.To)
		case a.Rel != b.Rel:
			return int(a.Rel) - int(b.Rel)
		case a.Forward == b.Forward:
			return 0
		case a.Forward:
			return -1
		}
		return 1
	})
	a := &Answer{
		Central:     ex.central,
		Depth:       ex.depth,
		Score:       Score(ex.depth, sumW, env.lambda),
		Nodes:       nodes,
		Edges:       edges,
		PrunedNodes: len(ex.order) - len(kept),
	}
	return &modelCandidate{answer: a, nodeSet: ids, covers: a.ContainsAllKeywords(q), rank: rank}
}

// modelSelectTopK ranks candidates by score, drops non-covering ones and
// Central Graphs that completely contain a better-ranked smaller answer,
// and returns the best k.
func modelSelectTopK(cands []*modelCandidate, k int) []*Answer {
	var ordered []*modelCandidate
	for _, c := range cands {
		if c.covers {
			ordered = append(ordered, c)
		}
	}
	slices.SortFunc(ordered, func(a, b *modelCandidate) int {
		switch {
		case a.answer.Score != b.answer.Score:
			if a.answer.Score < b.answer.Score {
				return -1
			}
			return 1
		case a.answer.Depth != b.answer.Depth:
			return a.answer.Depth - b.answer.Depth
		}
		return a.rank - b.rank
	})
	var out []*Answer
	var keptSets []map[graph.NodeID]struct{}
	for _, c := range ordered {
		if len(out) >= k {
			break
		}
		superset := false
		for _, ks := range keptSets {
			if len(ks) >= len(c.nodeSet) {
				continue
			}
			contained := true
			for v := range ks {
				if _, ok := c.nodeSet[v]; !ok {
					contained = false
					break
				}
			}
			if contained {
				superset = true
				break
			}
		}
		if superset {
			continue
		}
		out = append(out, c.answer)
		keptSets = append(keptSets, c.nodeSet)
	}
	return out
}

// modelTopDown is the model's stage two over a finished matrix bottom-up
// stage. The second result counts capped extractions.
func modelTopDown(s *state) ([]*Answer, int) {
	gr := &s.gr
	contains := sourceContains(s.in)
	env := &modelEnv{
		q:            len(s.in.Sources),
		contains:     func(v graph.NodeID) uint64 { return contains[v] },
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		row:          func(v graph.NodeID, dst []uint8) { s.m.Row(v, dst) },
		noLevelCover: s.p.DisableLevelCover,
	}
	cands := make([]*modelCandidate, len(gr.centrals))
	truncated := 0
	for i, vc := range gr.centrals {
		ex := modelExtract(s, contains, vc)
		if ex.truncated {
			truncated++
		}
		cands[i] = env.modelAssemble(ex, i)
	}
	return modelSelectTopK(cands, s.p.TopK), truncated
}

// modelTopDownDynamic is the model's stage two over a finished CPU-Par-d
// bottom-up stage.
func modelTopDownDynamic(s *dynState) []*Answer {
	q := len(s.in.Sources)
	env := &modelEnv{
		q:            q,
		contains:     func(v graph.NodeID) uint64 { return s.contains[v] },
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		noLevelCover: s.p.DisableLevelCover,
		row: func(v graph.NodeID, dst []uint8) {
			for i := range dst {
				dst[i] = Infinity
				if h, ok := s.hitLevel(v, i); ok {
					dst[i] = h
				}
			}
		},
	}
	cands := make([]*modelCandidate, len(s.centrals))
	for i, vc := range s.centrals {
		cands[i] = env.modelAssemble(modelRecover(s, vc), i)
	}
	return modelSelectTopK(cands, s.p.TopK)
}
