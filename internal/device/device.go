// Package device simulates the GPU execution model the paper's GPU-Par
// implementation targets (a GTX 1080 Ti): kernels launched over a grid of
// warps, each warp a group of lanes executing in lockstep (SIMT), with a
// host↔device transfer model for the node-keyword matrix.
//
// The simulator preserves the *structure* of the paper's GPU algorithm —
// warp ↔ (frontier, BFS instance) mapping, lane ↔ neighbor striding, locked
// frontier enqueue on device, device-side initialization — so the Go
// reproduction exercises the same decomposition and the same lock-free
// property, while DESIGN.md documents that goroutine wall-clock cannot
// reproduce real GPU speedups. The transfer model reproduces the paper's
// §V-B bandwidth arithmetic (300 MB matrix over ~12 GB/s ≈ 25 ms).
package device

import (
	"sync"
	"sync/atomic"
)

// Device describes the simulated accelerator.
type Device struct {
	// SMs is the number of warp schedulers simulated with goroutines
	// (streaming multiprocessors). <= 0 selects 8.
	SMs int
	// WarpSize is the number of lanes per warp (32 on NVIDIA hardware).
	WarpSize int
	// MemoryBytes is the device global-memory capacity (11 GiB on the
	// paper's GTX 1080 Ti); used for the Table IV storage accounting.
	MemoryBytes int64
}

// GTX1080Ti returns the paper's evaluation GPU.
func GTX1080Ti() *Device {
	return &Device{
		SMs:         28,
		WarpSize:    32,
		MemoryBytes: 11 << 30,
	}
}

func (d *Device) sms() int {
	if d.SMs <= 0 {
		return 8
	}
	return d.SMs
}

func (d *Device) warpSize() int {
	if d.WarpSize <= 0 {
		return 32
	}
	return d.WarpSize
}

// Launch runs kernel over `warps` warps. Warps are scheduled dynamically
// across the simulated SMs; within a warp the kernel is invoked for each
// lane in order, which is how SIMT lockstep serializes on a simulator.
// Launch returns when the whole grid has executed (stream-synchronous).
func (d *Device) Launch(warps int, kernel func(warp, lane int)) {
	if warps <= 0 {
		return
	}
	ws := d.warpSize()
	sms := d.sms()
	if sms > warps {
		sms = warps
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(sms)
	for s := 0; s < sms; s++ {
		go func() {
			defer wg.Done()
			for {
				w := int(next.Add(1)) - 1
				if w >= warps {
					return
				}
				for lane := 0; lane < ws; lane++ {
					kernel(w, lane)
				}
			}
		}()
	}
	wg.Wait()
}

// Launch1D runs kernel once per thread index in [0, threads), the flat
// grid used for initialization and identification kernels.
func (d *Device) Launch1D(threads int, kernel func(i int)) {
	ws := d.warpSize()
	warps := (threads + ws - 1) / ws
	d.Launch(warps, func(warp, lane int) {
		i := warp*ws + lane
		if i < threads {
			kernel(i)
		}
	})
}

// Queue is the device-side frontier queue: appends use an atomic ticket
// (the "locked writing" the paper uses for GPU frontier enqueue, viable
// there thanks to DDR5X bandwidth).
type Queue struct {
	buf  []int32
	next atomic.Int64
}

// NewQueue returns a queue with the given capacity.
func NewQueue(capacity int) *Queue {
	return &Queue{buf: make([]int32, capacity)}
}

// Append reserves a slot and stores v. Safe for concurrent use from kernel
// lanes. Appends beyond capacity panic: the search sizes the queue at |V|,
// and a frontier can never exceed the node count.
func (q *Queue) Append(v int32) {
	i := q.next.Add(1) - 1
	q.buf[i] = v
}

// Reset empties the queue for the next level.
func (q *Queue) Reset() { q.next.Store(0) }

// Items returns the appended items. The order is nondeterministic (ticket
// order); callers that need determinism must sort.
func (q *Queue) Items() []int32 { return q.buf[:q.next.Load()] }

// Len returns the number of appended items.
func (q *Queue) Len() int { return int(q.next.Load()) }
