package core

import (
	"sort"
	"time"

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
//     memory allocation … but also diverges a lot", §V-C),
//   - the matrix transfer back to the host is accounted by the device's
//     bandwidth model.

// GPUResult extends Result with the simulated device-transfer accounting.
type GPUResult struct {
	Result
	// TransferSeconds is the simulated device→host time for the
	// node-keyword matrix (the paper's ~25 ms for 300 MB arithmetic).
	TransferSeconds float64
	// MatrixBytes is the size of the transferred matrix.
	MatrixBytes int64
}

// SearchGPU runs the two-stage algorithm with the bottom-up stage mapped
// onto the simulated device and the top-down stage on p.Threads CPU
// workers. Results are identical to Search.
func SearchGPU(in Input, p Params, dev *device.Device) (*GPUResult, error) {
	p = p.Defaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pool := newSearchPool(p.Threads)
	defer pool.Close()

	t0 := time.Now()
	s := newGPUState(in, p, pool, dev)
	s.prof.Phases[PhaseInit] = time.Since(t0)

	d, err := s.bottomUpGPU()
	if err != nil {
		return nil, err
	}

	t0 = time.Now()
	answers, err := s.topDown()
	if err != nil {
		return nil, err
	}
	s.prof.Phases[PhaseTopDown] = time.Since(t0)

	return &GPUResult{
		Result: Result{
			Answers:           answers,
			DepthD:            d,
			CentralCandidates: len(s.gr.centrals),
			Profile:           s.prof,
		},
		TransferSeconds: dev.TransferTime(s.m.ByteSize()),
		MatrixBytes:     s.m.ByteSize(),
	}, nil
}

// gpuState wraps the shared state with the device and its frontier queue.
type gpuState struct {
	*state
	dev   *device.Device
	queue *device.Queue
}

func newGPUState(in Input, p Params, pool *parallel.Pool, dev *device.Device) *gpuState {
	n := in.G.NumNodes()
	q := len(in.Sources)
	s := &state{}
	s.prepareCommon(in, p, pool)
	// Device-side initialization kernel: one thread per source entry. The
	// GPU variant flags frontiers directly (its enqueue kernel scans the
	// whole FIdentifier, so touched-word tracking is not needed).
	offsets := make([]int, q+1)
	for i, src := range in.Sources {
		offsets[i+1] = offsets[i] + len(src)
	}
	total := offsets[q]
	dev.Launch1D(total, func(t int) {
		i := sort.SearchInts(offsets[1:], t+1)
		v := in.Sources[i][t-offsets[i]]
		s.m.Set(v, i, 0)
		s.fid.Set(int(v))
	})
	return &gpuState{state: s, dev: dev, queue: device.NewQueue(n)}
}

// enqueueFrontiersGPU parallelizes the FIdentifier scan with locked queue
// appends, then sorts the queue: real GPU frontiers are order-free, but a
// canonical order keeps results bit-identical to the CPU variants.
func (s *gpuState) enqueueFrontiersGPU() {
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
	s.prof.FrontierTotal += int64(len(s.frontier))
}

// identifyCentralsGPU is a flat kernel over frontiers.
func (s *gpuState) identifyCentralsGPU() {
	gr := &s.gr
	lvl := uint8(s.level)
	s.dev.Launch1D(len(s.frontier), func(i int) {
		v := graph.NodeID(s.frontier[i])
		if gr.centralAt[v] != notCentral {
			return
		}
		if s.m.AllHit(v) {
			gr.centralAt[v] = lvl
		}
	})
	for _, f := range s.frontier {
		if gr.centralAt[f] == lvl {
			gr.centrals = append(gr.centrals, graph.NodeID(f))
		}
	}
}

// expandGPU launches one warp per (frontier, BFS instance); lanes stride
// over the frontier's neighbors — the paper's GPU mapping of Algorithm 2.
func (s *gpuState) expandGPU() {
	l := s.level
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
}

func (s *gpuState) bottomUpGPU() (int, error) {
	k := s.p.TopK
	for {
		if err := cancelled(s.p); err != nil {
			return s.level, err
		}
		t0 := time.Now()
		s.enqueueFrontiersGPU()
		s.prof.Phases[PhaseEnqueue] += time.Since(t0)
		if len(s.frontier) == 0 {
			break
		}
		t0 = time.Now()
		s.identifyCentralsGPU()
		s.prof.Phases[PhaseIdentify] += time.Since(t0)
		s.prof.Levels++
		if len(s.gr.centrals) >= k {
			break
		}
		if s.level >= s.p.MaxLevel {
			break
		}
		t0 = time.Now()
		s.expandGPU()
		s.prof.Phases[PhaseExpand] += time.Since(t0)
		s.level++
	}
	return s.level, nil
}
