package core

import (
	"math/bits"
	"sync"
	"time"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// This file implements CPU-Par-d, the comparison point of §VI: "a parallel
// algorithm with dynamic memory allocation, which does not require
// node-keyword matrix but needs locks on writes and reads. In addition,
// there is no extraction phase needed, since all Central Graphs are
// recorded during search."
//
// Every node carries a lazily allocated record of per-keyword hitting
// levels and hitting-path parents, guarded by a per-node mutex. The
// expansion logic is identical to the lock-free variant, so both produce
// the same Central Nodes, depths and answers; what differs is the cost of
// locked reads and writes on the hot path — which is exactly what Exp-1 and
// Exp-4 measure.

// dynParent is one recorded hitting-path step into a node.
type dynParent struct {
	node    graph.NodeID
	rel     graph.RelID
	forward bool
}

// dynRecord is a node's dynamically allocated search state.
type dynRecord struct {
	hit     map[int]uint8       // keyword → hitting level
	parents map[int][]dynParent // keyword → hitting-path parents
}

// dynNode pairs the record with its lock.
type dynNode struct {
	mu  sync.Mutex
	rec *dynRecord
}

func (d *dynNode) record() *dynRecord {
	if d.rec == nil {
		d.rec = &dynRecord{hit: make(map[int]uint8), parents: make(map[int][]dynParent)}
	}
	return d.rec
}

type dynState struct {
	in   Input
	p    Params
	pool *parallel.Pool

	nodes []dynNode
	fid   *parallel.Bitset
	cid   *parallel.Bitset

	contains  []uint64
	frontier  []int32
	centralAt []int32
	centrals  []graph.NodeID
	level     int

	prof Profile
}

func newDynState(in Input, p Params, pool *parallel.Pool) *dynState {
	n := in.G.NumNodes()
	q := len(in.Sources)
	s := &dynState{
		in:        in,
		p:         p,
		pool:      pool,
		nodes:     make([]dynNode, n),
		fid:       parallel.NewBitset(n),
		cid:       parallel.NewBitset(n),
		contains:  make([]uint64, n),
		centralAt: make([]int32, n),
	}
	for i := range s.centralAt {
		s.centralAt[i] = -1
	}
	thunks := make([]func(), q)
	for i := 0; i < q; i++ {
		i := i
		thunks[i] = func() {
			for _, v := range in.Sources[i] {
				nd := &s.nodes[v]
				nd.mu.Lock()
				nd.record().hit[i] = 0
				nd.mu.Unlock()
				s.fid.Set(int(v))
			}
		}
	}
	pool.Run(thunks...)
	for i := 0; i < q; i++ {
		bit := uint64(1) << uint(i)
		for _, v := range in.Sources[i] {
			s.contains[v] |= bit
		}
	}
	return s
}

// hitLevel reads a node's hitting level for keyword i under its lock.
func (s *dynState) hitLevel(v graph.NodeID, i int) (uint8, bool) {
	nd := &s.nodes[v]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.rec == nil {
		return 0, false
	}
	h, ok := nd.rec.hit[i]
	return h, ok
}

func (s *dynState) enqueueFrontiers() {
	s.frontier = s.fid.AppendSet(s.frontier[:0])
	s.fid.Reset()
	s.prof.FrontierTotal += int64(len(s.frontier))
}

func (s *dynState) identifyCentrals() {
	q := len(s.in.Sources)
	lvl := int32(s.level)
	s.pool.For(len(s.frontier), func(i int) {
		v := graph.NodeID(s.frontier[i])
		if s.cid.Get(int(v)) {
			return
		}
		nd := &s.nodes[v]
		nd.mu.Lock()
		all := nd.rec != nil && len(nd.rec.hit) == q
		nd.mu.Unlock()
		if all {
			s.cid.Set(int(v))
			s.centralAt[v] = lvl
		}
	})
	for _, f := range s.frontier {
		if s.centralAt[f] == lvl {
			s.centrals = append(s.centrals, graph.NodeID(f))
		}
	}
}

// expand mirrors Algorithm 2 but every hitting-level read and write goes
// through the per-node mutex, and hitting-path parents are recorded inline
// (this is what spares CPU-Par-d the extraction phase at the price of
// locked traversal).
func (s *dynState) expand() {
	l := s.level
	q := len(s.in.Sources)
	s.pool.ForChunks(len(s.frontier), func(start, end int) {
		for fi := start; fi < end; fi++ {
			vf := graph.NodeID(s.frontier[fi])
			if s.cid.Get(int(vf)) {
				continue
			}
			af := int(s.in.Levels[vf])
			if af > l {
				s.fid.Set(int(vf))
				continue
			}
			for i := 0; i < q; i++ {
				hif, ok := s.hitLevel(vf, i)
				if !ok || int(hif) > l {
					continue
				}
				s.in.G.ForEachNeighbor(vf, func(vn graph.NodeID, rel graph.RelID, out bool) {
					nd := &s.nodes[vn]
					nd.mu.Lock()
					rec := nd.record()
					if hin, hit := rec.hit[i]; hit {
						// Another hitting path at the same level: record the
						// extra parent (multi-path answers, §III-B).
						if int(hin) == l+1 {
							rec.parents[i] = append(rec.parents[i], dynParent{vf, rel, out})
						}
						nd.mu.Unlock()
						return
					}
					if s.contains[vn] == 0 && int(s.in.Levels[vn]) > l+1 {
						nd.mu.Unlock()
						s.fid.Set(int(vf))
						return
					}
					rec.hit[i] = uint8(l + 1)
					rec.parents[i] = append(rec.parents[i], dynParent{vf, rel, out})
					nd.mu.Unlock()
					s.fid.Set(int(vn))
				})
			}
		}
	})
}

func (s *dynState) bottomUp() (int, error) {
	k := s.p.TopK
	for {
		if err := cancelled(s.p); err != nil {
			return s.level, err
		}
		t0 := time.Now()
		s.enqueueFrontiers()
		s.prof.Phases[PhaseEnqueue] += time.Since(t0)
		if len(s.frontier) == 0 {
			break
		}
		t0 = time.Now()
		s.identifyCentrals()
		s.prof.Phases[PhaseIdentify] += time.Since(t0)
		s.prof.Levels++
		if len(s.centrals) >= k {
			break
		}
		if s.level >= s.p.MaxLevel {
			break
		}
		t0 = time.Now()
		s.expand()
		s.prof.Phases[PhaseExpand] += time.Since(t0)
		s.level++
	}
	return s.level, nil
}

// extract rebuilds the Central Graph at vc from the recorded parents — a
// walk over stored paths rather than a re-traversal of the data graph —
// keyword-major from each popped node, parents in recorded order.
func (s *dynState) extract(sc *tdScratch, qc *tdQuery, vc graph.NodeID) int {
	depth := 0
	for i := 0; i < qc.q; i++ {
		if h, ok := s.hitLevel(vc, i); ok && int(h) > depth {
			depth = int(h)
		}
	}
	sc.begin(qc, vc)
	for len(sc.work) > 0 {
		it := sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
		nd := &s.nodes[sc.ids[it.node]]
		for b := it.bits; b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			nd.mu.Lock()
			var parents []dynParent
			if nd.rec != nil {
				parents = nd.rec.parents[i]
			}
			nd.mu.Unlock()
			for _, p := range parents {
				sc.addParent(qc, p.node, it.node, p.rel, p.forward, uint64(1)<<uint(i))
			}
		}
	}
	return depth
}

// row reads v's hitting levels under its lock.
func (s *dynState) row(qc *tdQuery, v graph.NodeID, dst []uint8) {
	for i := range dst {
		if h, ok := s.hitLevel(v, i); ok {
			dst[i] = h
		} else {
			dst[i] = Infinity
		}
	}
}

// keywords reads v's containment from the array CPU-Par-d keeps itself.
func (s *dynState) keywords(qc *tdQuery, v graph.NodeID) uint64 {
	return s.contains[v] & qc.all
}

// topDown ranks and assembles the recorded Central Graphs through the one
// stage-two implementation (see tdRun); only the extraction differs.
func (s *dynState) topDown() ([]*Answer, error) {
	q := len(s.in.Sources)
	var r tdRun
	r.qc = tdQuery{
		src:          s,
		q:            q,
		all:          allMask(q),
		weights:      s.in.Weights,
		lambda:       s.p.Lambda,
		noLevelCover: s.p.DisableLevelCover,
		maxNodes:     s.p.MaxGraphNodes,
		topK:         s.p.TopK,
		ctx:          s.p.Ctx,
	}
	answers, capped, err := r.run(s.pool, s.centrals)
	s.prof.TruncatedGraphs = capped
	return answers, err
}

// SearchDynamic runs the CPU-Par-d variant of the two-stage algorithm.
func SearchDynamic(in Input, p Params) (*Result, error) {
	p = p.Defaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pool := newSearchPool(p.Threads)
	defer pool.Close()

	t0 := time.Now()
	s := newDynState(in, p, pool)
	s.prof.Phases[PhaseInit] = time.Since(t0)

	d, err := s.bottomUp()
	if err != nil {
		return nil, err
	}

	t0 = time.Now()
	answers, err := s.topDown()
	if err != nil {
		return nil, err
	}
	s.prof.Phases[PhaseTopDown] = time.Since(t0)

	return &Result{
		Answers:           answers,
		DepthD:            d,
		CentralCandidates: len(s.centrals),
		Profile:           s.prof,
	}, nil
}
