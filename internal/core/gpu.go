package core

import (
	"sort"

	"wikisearch/internal/device"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// This file implements GPU-Par on the SIMT simulator of internal/device,
// preserving the paper's GPU decomposition of Algorithm 1/2:
//
//   - the node-keyword matrix is initialized by a device kernel,
//   - frontiers are enqueued by a device kernel with locked (atomic ticket)
//     writes — viable on GPUs thanks to DDR5X bandwidth (§V-B),
//   - Central Node identification is a flat 1D kernel over frontiers,
//   - expansion launches one warp per (frontier, BFS instance) with lanes
//     striding over the frontier's neighbors,
//   - top-down processing runs on the CPU ("it not only needs dynamic
//     memory allocation … but also diverges a lot", §V-C).

// SearchGPU runs the two-stage algorithm with the bottom-up stage mapped
// onto the simulated device and the top-down stage on p.Threads CPU
// workers. Results are identical to Search.
func SearchGPU(in Input, p Params, dev *device.Device) (*Result, error) {
	return searchOnce(in, p, func(p Params, pool *parallel.Pool) steps {
		return &gpuState{state: &state{in: in, p: p, pool: pool}, dev: dev}
	})
}

// gpuState wraps the shared state with the device and its frontier queue;
// its methods are GPU-Par's steps of Algorithm 1, and stage two is the
// state's own.
type gpuState struct {
	*state
	dev   *device.Device
	queue *device.Queue
}

// initialize resets the shared state and runs the device-side
// initialization kernel: one thread per source entry. The GPU variant flags
// frontiers directly (its enqueue kernel scans the whole FIdentifier, so
// touched-word tracking is not needed).
func (s *gpuState) initialize() int {
	in := s.in
	q := len(in.Sources)
	s.prepareCommon()
	offsets := make([]int, q+1)
	for i, src := range in.Sources {
		offsets[i+1] = offsets[i] + len(src)
	}
	total := offsets[q]
	s.dev.Launch1D(total, func(t int) {
		i := sort.SearchInts(offsets[1:], t+1)
		v := in.Sources[i][t-offsets[i]]
		s.m.Set(v, i, 0)
		s.fid.Set(int(v))
	})
	s.queue = device.NewQueue(in.G.NumNodes())
	return q
}

// enqueue parallelizes the FIdentifier scan with locked queue
// appends, then sorts the queue: real GPU frontiers are order-free, but a
// canonical order keeps results bit-identical to the CPU variants.
func (s *gpuState) enqueue() int {
	n := s.in.G.NumNodes()
	s.queue.Reset()
	s.dev.Launch1D(n, func(v int) {
		if s.fid.Get(v) {
			s.queue.Append(int32(v))
		}
	})
	s.fid.Reset()
	items := s.queue.Items()
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	s.frontier = append(s.frontier[:0], items...)
	return len(s.frontier)
}

// identify is a flat kernel over frontiers; as on the CPU, no frontier
// entry is central already.
func (s *gpuState) identify(l int) int {
	gr := &s.gr
	lvl := uint8(l)
	s.dev.Launch1D(len(s.frontier), func(i int) {
		v := graph.NodeID(s.frontier[i])
		if s.m.AllHit(v) {
			gr.centralAt[v] = lvl
		}
	})
	found := len(gr.centrals)
	for _, f := range s.frontier {
		if gr.centralAt[f] == lvl {
			gr.centrals = append(gr.centrals, graph.NodeID(f))
		}
	}
	return len(gr.centrals) - found
}

// expand launches one warp per (frontier, BFS instance); lanes stride over
// the frontier's neighbors — the paper's GPU mapping of Algorithm 2. The
// simulated device does not count the adjacency it walks.
func (s *gpuState) expand(l int) int64 {
	q := s.m.Q()
	ws := s.dev.WarpSize
	if ws <= 0 {
		ws = 32
	}
	centralAt := s.gr.centralAt
	warps := len(s.frontier) * q
	s.dev.Launch(warps, func(w, lane int) {
		vf := graph.NodeID(s.frontier[w/q])
		i := w % q
		if centralAt[vf] != notCentral {
			return
		}
		af := int(s.in.Levels[vf])
		if af > l {
			if i == 0 && lane == 0 {
				s.fid.Set(int(vf))
			}
			return
		}
		if int(s.m.Get(vf, i)) > l {
			return
		}
		deg := s.in.G.Degree(vf)
		for j := lane; j < deg; j += ws {
			vn, _, _ := s.in.G.Neighbor(vf, j)
			if s.m.Get(vn, i) != Infinity {
				continue
			}
			if s.m.KeywordMask(vn) == 0 && int(s.in.Levels[vn]) > l+1 {
				s.fid.Set(int(vf))
				continue
			}
			s.m.Set(vn, i, uint8(l+1))
			s.fid.Set(int(vn))
		}
	})
	return 0
}
