package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestKernelsEquivalent: the flattened expansion kernel and the per-column
// reference kernel (expandRefChunk) return byte-identical results, at
// Tnum=1 and at Tnum=GOMAXPROCS, and the flat kernel never scans more edges.
func TestKernelsEquivalent(t *testing.T) {
	threads := []int{1, runtime.GOMAXPROCS(0)}
	fewer := 0 // searches on which the flat kernel scanned strictly fewer edges
	for seed := int64(400); seed < 440; seed++ {
		in, p := randomScenario(t, seed)
		for _, tn := range threads {
			p.Threads = tn
			flat, err := Search(in, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := searchReference(in, p)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("seed %d flat vs reference T=%d", seed, tn), ref, flat)
			if flat.Profile.EdgesScanned > ref.Profile.EdgesScanned {
				t.Fatalf("seed %d T=%d: flat kernel scanned %d edges > reference %d",
					seed, tn, flat.Profile.EdgesScanned, ref.Profile.EdgesScanned)
			}
			if flat.Profile.EdgesScanned < ref.Profile.EdgesScanned {
				fewer++
			}
		}
	}
	// The reference kernel re-walks the adjacency per active column, so a
	// run where it never scanned more than the flat kernel did not run it.
	if fewer == 0 {
		t.Fatal("reference kernel never scanned more edges than the flat kernel")
	}
}

// TestPooledStateReuse: one SearchState serving many queries — different
// graph sizes, keyword counts, thread counts, with repeats — returns exactly
// what a fresh single-use state returns for every one of them. This is the
// equivalence property the engine's state pool rests on.
func TestPooledStateReuse(t *testing.T) {
	ss := NewSearchState()
	defer ss.Close()
	threads := []int{1, 2, 4, 8}
	for i := 0; i < 120; i++ {
		// 30 distinct scenarios, each served 4 times from the warm state at
		// varying thread counts (so the pool is also rebuilt under reuse).
		seed := int64(500 + i%30)
		in, p := randomScenario(t, seed)
		p.Threads = threads[(i/30+i)%len(threads)]
		got, err := ss.Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Search(in, p)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("query %d (seed %d, T=%d)", i, seed, p.Threads), fresh, got)
	}
}

// TestSearchPathAllocationFree is the zero-allocation guard: on a warm
// SearchState, the whole kernel path — parameter resolution, state reset,
// source initialization and every bottom-up level — performs zero heap
// allocations, sequentially and with a worker pool. The wide scenarios
// (≥ 9 keywords) take the two-word-row branches of the expansion kernel.
func TestSearchPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	scenarios := []struct {
		name  string
		build func(testing.TB, int64) (Input, Params)
		seeds []int64
	}{
		{"narrow", randomScenario, []int64{7, 11}},
		{"wide", wideScenario, []int64{1, 2, 3, 4, 5}},
	}
	for _, tn := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", tn), func(t *testing.T) {
			for _, sn := range scenarios {
				for _, seed := range sn.seeds {
					t.Run(fmt.Sprintf("%s/seed=%d", sn.name, seed), func(t *testing.T) {
						in, p := sn.build(t, seed)
						p.Threads = tn
						ss := NewSearchState()
						defer ss.Close()
						// Tracing on: the span record path must be allocation-free too.
						ss.SetTracing(true)
						for i := 0; i < 3; i++ { // warm buffers, workers and caps
							if _, err := ss.Search(in, p); err != nil {
								t.Fatal(err)
							}
						}
						allocs := testing.AllocsPerRun(50, func() {
							if _, err := ss.BottomUp(in, p); err != nil {
								t.Fatal(err)
							}
						})
						if allocs != 0 {
							t.Fatalf("warm bottom-up stage allocates %.1f times per query, want 0", allocs)
						}
					})
				}
			}
		})
	}
}

// TestSearchStateClose: a closed state's pool degrades to serial execution
// rather than failing, and Close is idempotent.
func TestSearchStateClose(t *testing.T) {
	ss := NewSearchState()
	in, p := randomScenario(t, 11)
	p.Threads = 4
	want, err := ss.Search(in, p)
	if err != nil {
		t.Fatal(err)
	}
	ss.Close()
	ss.Close()
	got, err := Search(in, p)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "after close", want, got)
}

// nodeBytes sums the capacities, in bytes, of the state's arrays that scale
// with |V|: the matrix, FIdentifier, centralAt, and the frontier and
// touched-word lists.
func (s *state) nodeBytes() int {
	b := 8*cap(s.m.Words()) + 8*((s.fid.Len()+63)/64) + cap(s.gr.centralAt)
	b += 4 * (cap(s.frontier) + cap(s.touchedWords))
	scratch := s.scratch[:cap(s.scratch)]
	for i := range scratch {
		b += 4 * cap(scratch[i].touched)
	}
	return b
}

// maxSoloBytesPerNode is the per-node budget of a warm solo state at q ≤ 8:
// an 8-byte matrix row, a 1-byte centralAt, a frontier list of at most 4 B
// per node, and an eighth of a byte of FIdentifier plus touched-word lists.
const maxSoloBytesPerNode = 14

// TestSearchStateBytesPerNode: a warm solo state at q ≤ 8 keeps at most
// maxSoloBytesPerNode bytes per graph node in |V|-sized arrays — there is
// no per-node containment array, since the matrix's zero cells carry it.
func TestSearchStateBytesPerNode(t *testing.T) {
	in, p := benchScenario(t)
	ss := NewSearchState()
	defer ss.Close()
	for _, tn := range []int{1, 4, 1, 4} {
		p.Threads = tn
		if _, err := ss.Search(in, p); err != nil {
			t.Fatal(err)
		}
	}
	n := in.G.NumNodes()
	perNode := float64(ss.st.nodeBytes()) / float64(n)
	t.Logf("q = %d, %d nodes: %.2f B/node", len(in.Sources), n, perNode)
	if perNode > maxSoloBytesPerNode {
		t.Fatalf("warm solo state keeps %.2f B/node in |V|-sized arrays, want ≤ %d", perNode, maxSoloBytesPerNode)
	}
}
