package parallel

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(200)
	if b.Len() != 200 {
		t.Fatalf("Len = %d, want 200", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
}

func TestBitsetAppendSetOrdered(t *testing.T) {
	b := NewBitset(1000)
	want := []int32{0, 3, 63, 64, 65, 500, 999}
	for _, i := range want {
		b.Set(int(i))
	}
	got := b.AppendSet(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendSet returned %d indices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSet[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBitsetSetTouchFirstExactlyOnce(t *testing.T) {
	// For every word, exactly one SetTouch observes the empty→non-empty
	// transition — also under concurrency. This is what lets per-worker
	// touched-word lists partition the dirty words without duplicates.
	const n = 1 << 14
	b := NewBitset(n)
	rng := rand.New(rand.NewSource(42))
	idxs := rng.Perm(n)[:5000]

	var mu sync.Mutex
	firsts := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []int
			for i := w; i < len(idxs); i += 8 {
				if wi, first := b.SetTouch(idxs[i]); first {
					local = append(local, wi)
				}
			}
			mu.Lock()
			for _, wi := range local {
				firsts[wi]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	want := map[int]bool{}
	for _, i := range idxs {
		want[i/64] = true
	}
	if len(firsts) != len(want) {
		t.Fatalf("%d words reported first-touch, want %d", len(firsts), len(want))
	}
	for wi, c := range firsts {
		if c != 1 {
			t.Fatalf("word %d reported first-touch %d times", wi, c)
		}
		if !want[wi] {
			t.Fatalf("word %d reported but never touched", wi)
		}
	}
	for _, i := range idxs {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
}

func TestBitsetDrainWordMatchesAppendSet(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitset(1 << 16)
		words := map[int]bool{}
		for _, i := range idxs {
			wi, _ := b.SetTouch(int(i))
			words[wi] = true
		}
		want := b.AppendSet(nil)
		sorted := make([]int, 0, len(words))
		for wi := range words {
			sorted = append(sorted, wi)
		}
		sort.Ints(sorted)
		var got []int32
		for _, wi := range sorted {
			got = b.DrainWord(wi, got)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return b.Count() == 0 // drained words are cleared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetResize(t *testing.T) {
	b := NewBitset(100)
	b.Set(99)
	b.Resize(1000)
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
	if b.Count() != 0 {
		t.Fatal("Resize did not clear bits")
	}
	b.Set(999)
	b.Resize(64) // shrink within capacity must also clear
	if b.Len() != 64 || b.Count() != 0 {
		t.Fatalf("after shrink: Len=%d Count=%d", b.Len(), b.Count())
	}
	b.Set(63)
	b.Resize(128) // regrow within capacity: previously-set bits stay cleared
	if b.Count() != 0 {
		t.Fatal("regrow exposed stale bits")
	}
}

func TestBitsetConcurrentSet(t *testing.T) {
	const n = 1 << 14
	b := NewBitset(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				b.Set(r.Intn(n))
			}
		}(int64(g))
	}
	// Concurrently set every multiple of 7 so we can verify none are lost.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += 7 {
			b.Set(i)
		}
	}()
	wg.Wait()
	for i := 0; i < n; i += 7 {
		if !b.Get(i) {
			t.Fatalf("lost concurrent Set of bit %d", i)
		}
	}
}

func TestByteArray(t *testing.T) {
	a := NewByteArray(10, Infinity)
	for i := 0; i < 10; i++ {
		if a.Get(i) != Infinity {
			t.Fatalf("cell %d = %d, want Infinity", i, a.Get(i))
		}
	}
	a.Set(3, 7)
	a.Set(4, 9) // same word as 3: must not disturb
	if a.Get(3) != 7 || a.Get(4) != 9 {
		t.Fatalf("Get(3)=%d Get(4)=%d, want 7,9", a.Get(3), a.Get(4))
	}
	if a.Get(5) != Infinity {
		t.Fatal("neighbor cell disturbed")
	}
	a.Fill(0)
	for i := 0; i < 10; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("cell %d = %d after Fill(0)", i, a.Get(i))
		}
	}
}

func TestByteArrayConcurrentDistinctCells(t *testing.T) {
	const n = 4096
	a := NewByteArray(n, Infinity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				a.Set(i, byte(i%251))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if a.Get(i) != byte(i%251) {
			t.Fatalf("cell %d = %d, want %d (adjacent-cell interference)", i, a.Get(i), byte(i%251))
		}
	}
}

func TestByteArraySameValueRace(t *testing.T) {
	// Theorem V.2 scenario: many writers writing the same value to the same
	// cell; the result must be that value.
	a := NewByteArray(64, Infinity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Set(17, 5)
			}
		}()
	}
	wg.Wait()
	if a.Get(17) != 5 {
		t.Fatalf("cell = %d, want 5", a.Get(17))
	}
}

func TestByteArrayLoadRow(t *testing.T) {
	const n = 257
	a := NewByteArray(n, 0xFF)
	for i := 0; i < n; i++ {
		a.Set(i, byte(i*7))
	}
	// Rows at every alignment and several lengths, including ones spanning
	// multiple words and ending mid-word.
	for base := 0; base < 9; base++ {
		for _, q := range []int{1, 2, 3, 4, 5, 7, 8, 13, 64} {
			if base+q > n {
				continue
			}
			dst := make([]byte, q)
			a.LoadRow(base, dst)
			for j := range dst {
				if want := byte((base + j) * 7); dst[j] != want {
					t.Fatalf("LoadRow(base=%d,q=%d)[%d] = %d, want %d", base, q, j, dst[j], want)
				}
			}
		}
	}
}

// TestByteArrayMatchWord: bit p of MatchWord(wi, v) is set iff cell 8wi+p
// equals v. The cells are drawn from values that differ in the lowest bit,
// so a match often sits just below a cell holding v^1 — where the classic
// SWAR zero-byte test reports a false positive.
func TestByteArrayMatchWord(t *testing.T) {
	const n = 256
	alphabet := []byte{0, 1, 2, 3, 0xFE, 0xFF}
	rng := rand.New(rand.NewSource(1))
	a := NewByteArray(n, 0xFF)
	for i := 0; i < n; i++ {
		a.Set(i, alphabet[rng.Intn(len(alphabet))])
	}
	for _, v := range alphabet {
		for wi := 0; wi < n/8; wi++ {
			var want uint64
			for p := 0; p < 8; p++ {
				if a.Get(8*wi+p) == v {
					want |= 1 << uint(p)
				}
			}
			if got := a.MatchWord(wi, v); got != want {
				t.Fatalf("MatchWord(%d, %#x) = %#x, want %#x", wi, v, got, want)
			}
		}
	}
}

func TestByteArrayResize(t *testing.T) {
	a := NewByteArray(10, 0)
	a.Set(9, 42)
	a.Resize(100, 0xFF)
	if a.Len() != 100 {
		t.Fatalf("Len = %d, want 100", a.Len())
	}
	for i := 0; i < 100; i++ {
		if a.Get(i) != 0xFF {
			t.Fatalf("cell %d = %d after Resize, want 0xFF", i, a.Get(i))
		}
	}
	a.Resize(7, 1) // shrink within capacity refills too
	for i := 0; i < 7; i++ {
		if a.Get(i) != 1 {
			t.Fatalf("cell %d = %d after shrink, want 1", i, a.Get(i))
		}
	}
}

// TestByteArrayFillEveryLength covers Fill's doubling copy at every word
// count around the powers of two, where a short last copy lands.
func TestByteArrayFillEveryLength(t *testing.T) {
	for n := 0; n <= 8*70; n += 5 {
		a := NewByteArray(n, 3)
		a.Fill(0xA5)
		for i := 0; i < n; i++ {
			if a.Get(i) != 0xA5 {
				t.Fatalf("n=%d: cell %d = %#x after Fill, want 0xa5", n, i, a.Get(i))
			}
		}
	}
}

func TestByteArrayQuickRoundTrip(t *testing.T) {
	f := func(vals []byte) bool {
		if len(vals) == 0 {
			return true
		}
		a := NewByteArray(len(vals), 0)
		for i, v := range vals {
			a.Set(i, v)
		}
		for i, v := range vals {
			if a.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
