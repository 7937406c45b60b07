package parallel

import (
	"sync/atomic"
	"testing"
)

// These guards pin the primitives' steady-state allocation behavior, which
// the engine's warm-query zero-allocation property is built on. They
// measure the warm state: pools after the helper spawn, bitsets and byte
// arrays after the backing storage has grown to capacity.

// TestPoolForAllocationFree: a warm pool dispatches For/ForWorker/ForChunks
// phases without allocating — the phase descriptor is a reused field and the
// bodies are prebound — and so do empty phases and a one-worker pool's
// plain loops.
func TestPoolForAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	var sink atomic.Int64
	fnIdx := func(i int) { sink.Add(int64(i)) }
	fnIdxW := func(w, i int) { sink.Add(int64(w + i)) }
	fnChunk := func(start, end int) { sink.Add(int64(end - start)) }
	fnChunkW := func(w, start, end int) { sink.Add(int64(w + end - start)) }
	for _, workers := range []int{4, 1} {
		p := NewPool(workers)
		defer p.Close()
		p.For(256, fnIdx) // spawn the persistent helpers
		allocs := testing.AllocsPerRun(100, func() {
			for _, n := range []int{256, 0, 1 << 16} { // 1<<16 meets the chunk-size cap
				p.For(n, fnIdx)
				p.ForWorker(n, fnIdxW)
				p.ForChunks(n, fnChunk)
				p.ForChunksWorker(n, fnChunkW)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm %d-worker pool phases allocate %.1f times per run, want 0", workers, allocs)
		}
	}
}

// TestPoolRunAllocationFree: Run with a prebuilt thunk slice reuses the
// descriptor and the spread slice — no per-dispatch allocation — and runs
// no, one, or a one-worker pool's thunks inline.
func TestPoolRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	var sink atomic.Int64
	thunks := []func(){
		func() { sink.Add(1) },
		func() { sink.Add(2) },
		func() { sink.Add(3) },
		func() { sink.Add(4) },
		func() { sink.Add(5) },
		func() { sink.Add(6) },
	}
	for _, workers := range []int{4, 1} {
		p := NewPool(workers)
		defer p.Close()
		p.Run(thunks...) // spawn the persistent helpers
		allocs := testing.AllocsPerRun(100, func() {
			p.Run(thunks...)
			p.Run(thunks[:1]...)
			p.Run()
		})
		if allocs != 0 {
			t.Fatalf("warm %d-worker Run allocates %.1f times per dispatch, want 0", workers, allocs)
		}
	}
}

// TestBitsetSteadyStateAllocationFree: the per-level mark / drain / reset
// cycle of the search runs without allocating once the drain buffer has
// grown to capacity.
func TestBitsetSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	b := NewBitset(4096)
	dst := make([]int32, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var touched [8]int
		nt := 0
		for i := 0; i < 4096; i += 17 {
			if wi, first := b.SetTouch(i); first && nt < len(touched) {
				touched[nt] = wi
				nt++
			}
			b.Set(i)
			if !b.Get(i) {
				t.Fatal("bit lost")
			}
		}
		dst = dst[:0]
		for wi := 0; wi < (4096+63)/64; wi++ {
			dst = b.DrainWord(wi, dst)
		}
		b.Reset()
	})
	if allocs != 0 {
		t.Fatalf("bitset steady state allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestByteArrayAllocationFree: the matrix cell operations — point and
// word-wide, reads and writes — are allocation-free on warm storage.
func TestByteArrayAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	a := NewByteArray(1024, Infinity)
	row := make([]byte, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i += 7 {
			a.SetMonotone(i, 3)
			a.Set(i, 3)
			if a.Get(i) != 3 {
				t.Fatal("cell lost")
			}
		}
		a.LoadRow(64, row)
		_ = a.MatchWord(8, Infinity)
		a.Resize(1024, Infinity)
	})
	if allocs != 0 {
		t.Fatalf("byte array operations allocate %.1f times per cycle, want 0", allocs)
	}
}
