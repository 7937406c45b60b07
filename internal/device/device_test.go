package device

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLaunchCoversGrid(t *testing.T) {
	d := &Device{SMs: 4, WarpSize: 8}
	const warps = 100
	var hits [warps * 8]atomic.Int32
	d.Launch(warps, func(w, lane int) {
		hits[w*8+lane].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("cell %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestLaunchLaneOrderWithinWarp(t *testing.T) {
	// SIMT serialization: within one warp, lanes run in ascending order.
	d := &Device{SMs: 2, WarpSize: 16}
	last := make([]int, 10)
	for i := range last {
		last[i] = -1
	}
	d.Launch(10, func(w, lane int) {
		if last[w] != lane-1 {
			t.Errorf("warp %d: lane %d ran after lane %d", w, lane, last[w])
		}
		last[w] = lane
	})
}

func TestLaunch1D(t *testing.T) {
	d := &Device{SMs: 3, WarpSize: 32}
	for _, n := range []int{0, 1, 31, 32, 33, 1000} {
		var count atomic.Int64
		seen := make([]atomic.Int32, n)
		d.Launch1D(n, func(i int) {
			count.Add(1)
			seen[i].Add(1)
		})
		if int(count.Load()) != n {
			t.Fatalf("n=%d: %d invocations", n, count.Load())
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, seen[i].Load())
			}
		}
	}
}

func TestQueueConcurrentAppend(t *testing.T) {
	d := &Device{SMs: 8, WarpSize: 32}
	q := NewQueue(32 * 64)
	d.Launch(64, func(w, lane int) {
		q.Append(int32(w*32 + lane))
	})
	items := append([]int32(nil), q.Items()...)
	if len(items) != 32*64 {
		t.Fatalf("queue has %d items, want %d", len(items), 32*64)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for i, v := range items {
		if int(v) != i {
			t.Fatalf("missing or duplicated item: items[%d] = %d", i, v)
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not empty queue")
	}
}

func TestLaunchGridShapeQuick(t *testing.T) {
	f := func(warpsSeed, smSeed, wsSeed uint8) bool {
		warps := int(warpsSeed%64) + 1
		d := &Device{SMs: int(smSeed%8) + 1, WarpSize: int(wsSeed%16) + 1}
		var count atomic.Int64
		d.Launch(warps, func(w, lane int) {
			if w < 0 || w >= warps || lane < 0 || lane >= d.WarpSize {
				t.Errorf("out-of-grid invocation (%d,%d)", w, lane)
			}
			count.Add(1)
		})
		return int(count.Load()) == warps*d.WarpSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceDefaults(t *testing.T) {
	d := &Device{}
	if d.sms() <= 0 || d.warpSize() <= 0 {
		t.Fatal("defaults not applied")
	}
	var ran atomic.Bool
	d.Launch(1, func(w, lane int) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("kernel not run with default config")
	}
	d.Launch(0, func(w, lane int) { t.Error("kernel run for empty grid") })
}
