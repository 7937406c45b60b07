package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wikisearch"
)

func key(terms string) cacheKey {
	return cacheKey{terms: terms, k: 20, alpha: 0.1, lambda: 0.2}
}

// get reports the cached answer without side effects beyond LRU ordering.
func (c *resultCache) get(key cacheKey) (*searchAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

func fixed(res *searchAnswer) func() (*searchAnswer, error) {
	return func() (*searchAnswer, error) { return res, nil }
}

func TestCacheKeyNormalization(t *testing.T) {
	a, ok := cacheKeyFor(wikisearch.Query{Text: "xml rdf sql", TopK: 5, Alpha: 0.1, Lambda: 0.2})
	if !ok {
		t.Fatal("no key for a keyword query")
	}
	b, ok := cacheKeyFor(wikisearch.Query{Text: "  XML, rdf... SQL!! ", TopK: 5, Alpha: 0.1, Lambda: 0.2})
	if !ok || a != b {
		t.Fatalf("normalized-equal queries got different keys: %+v vs %+v", a, b)
	}
	c, _ := cacheKeyFor(wikisearch.Query{Text: "xml rdf sql", TopK: 6, Alpha: 0.1, Lambda: 0.2})
	if a == c {
		t.Fatal("different k shares a key")
	}
	if _, ok := cacheKeyFor(wikisearch.Query{Text: "the of and"}); ok {
		t.Fatal("stopword-only query produced a cache key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	ctx := context.Background()
	r1, r2, r3 := &searchAnswer{}, &searchAnswer{}, &searchAnswer{}
	c.do(ctx, key("a"), fixed(r1))
	c.do(ctx, key("b"), fixed(r2))
	// Touch "a" so "b" is the eviction victim.
	if _, hit, _ := c.do(ctx, key("a"), fixed(nil)); !hit {
		t.Fatal("a not cached")
	}
	c.do(ctx, key("c"), fixed(r3))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get(key("b")); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.get(key("a")); !ok {
		t.Fatal("recently used a evicted")
	}
	if _, ok := c.get(key("c")); !ok {
		t.Fatal("newest c missing")
	}
	c.purge()
	if c.len() != 0 {
		t.Fatalf("len after purge = %d", c.len())
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(4)
	boom := errors.New("no such keyword")
	calls := 0
	fn := func() (*searchAnswer, error) { calls++; return nil, boom }
	if _, _, err := c.do(context.Background(), key("a"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.do(context.Background(), key("a"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 || c.len() != 0 {
		t.Fatalf("calls = %d len = %d; errors must not be cached", calls, c.len())
	}
}

// waitForWaiter polls until a singleflight call for the key is registered.
func waitForWaiter(t *testing.T, c *resultCache, k cacheKey) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		_, ok := c.calls[k]
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no in-flight call appeared")
}

func TestSingleflightDeduplicates(t *testing.T) {
	c := newResultCache(4)
	res := &searchAnswer{candidates: 7}
	var computes atomic.Int32
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		got, hit, err := c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			computes.Add(1)
			<-gate
			return res, nil
		})
		if err != nil || hit || got != res {
			t.Errorf("leader: res %p hit %v err %v", got, hit, err)
		}
	}()
	waitForWaiter(t, c, key("q"))

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		got, hit, err := c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			computes.Add(1)
			return &searchAnswer{}, nil
		})
		if err != nil || !hit || got != res {
			t.Errorf("follower: res %p hit %v err %v", got, hit, err)
		}
	}()
	close(gate)
	<-leaderDone
	<-followerDone
	if n := computes.Load(); n != 1 {
		t.Fatalf("search ran %d times for one key, want 1", n)
	}
	if got, ok := c.get(key("q")); !ok || got != res {
		t.Fatal("result not cached after singleflight")
	}
}

// TestSingleflightWaiterHonorsOwnContext: a waiter whose request dies must
// not block on the leader.
func TestSingleflightWaiterHonorsOwnContext(t *testing.T) {
	c := newResultCache(4)
	gate := make(chan struct{})
	defer close(gate)
	go c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
		<-gate
		return &searchAnswer{}, nil
	})
	waitForWaiter(t, c, key("q"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.do(ctx, key("q"), fixed(&searchAnswer{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSingleflightLeaderCancelDoesNotPoison: when the leader's request is
// cancelled mid-search, waiting followers run their own search instead of
// inheriting the leader's context error.
func TestSingleflightLeaderCancelDoesNotPoison(t *testing.T) {
	c := newResultCache(4)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			<-gate
			return nil, context.Canceled // the leader's client hung up
		})
	}()
	waitForWaiter(t, c, key("q"))

	res := &searchAnswer{candidates: 3}
	followerDone := make(chan struct{})
	var got *searchAnswer
	var hit bool
	var err error
	go func() {
		defer close(followerDone)
		got, hit, err = c.do(context.Background(), key("q"), fixed(res))
	}()
	close(gate)
	<-leaderDone
	<-followerDone
	if err != nil || hit || got != res {
		t.Fatalf("follower inherited the leader's fate: res %p hit %v err %v", got, hit, err)
	}
}

// TestSingleflightNoStampedeAfterLeaderCancel: when the leader dies on its
// own context with N waiters parked behind it, exactly ONE waiter re-runs
// the search (as the new leader) and the rest coalesce behind it or hit
// the freshly stored cache entry — fn runs exactly twice, not 1+N times.
func TestSingleflightNoStampedeAfterLeaderCancel(t *testing.T) {
	c := newResultCache(4)
	var calls atomic.Int64
	res := &searchAnswer{candidates: 7}

	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			calls.Add(1)
			<-gate
			return nil, context.Canceled // the leader's client hung up
		})
	}()
	waitForWaiter(t, c, key("q"))

	const followers = 16
	results := make(chan *searchAnswer, followers)
	errs := make(chan error, followers)
	var started sync.WaitGroup
	for i := 0; i < followers; i++ {
		started.Add(1)
		go func() {
			started.Done()
			got, _, err := c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
				calls.Add(1)
				return res, nil
			})
			results <- got
			errs <- err
		}()
	}
	started.Wait()
	close(gate) // release the doomed leader
	<-leaderDone

	for i := 0; i < followers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("follower error: %v", err)
		}
		if got := <-results; got != res {
			t.Fatalf("follower got %p, want %p", got, res)
		}
	}
	// One doomed leader + one re-elected leader; every other follower
	// coalesced or hit the cache.
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2 (stampede)", n)
	}
}

// TestResultCachePurgeFencesLateStore: a search blocked across PurgeCache —
// a publish landing mid-search — still answers its own request but stores
// nothing, so the next identical request misses instead of reading the
// pre-purge result.
func TestResultCachePurgeFencesLateStore(t *testing.T) {
	srv := testServerWith(t, Config{CacheSize: 4})
	c := srv.cache
	stale := &searchAnswer{candidates: 1}
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		got, hit, err := c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			<-gate
			return stale, nil
		})
		if err != nil || hit || got != stale {
			t.Errorf("leader: res %p hit %v err %v", got, hit, err)
		}
	}()
	waitForWaiter(t, c, key("q"))

	srv.PurgeCache()
	close(gate)
	<-leaderDone
	if _, ok := c.get(key("q")); ok || c.len() != 0 {
		t.Fatalf("search that straddled the purge left %d entries", c.len())
	}
	fresh := &searchAnswer{candidates: 2}
	if got, hit, err := c.do(context.Background(), key("q"), fixed(fresh)); err != nil || hit || got != fresh {
		t.Fatalf("next request: res %p hit %v err %v, want a miss returning the fresh result", got, hit, err)
	}
}

// TestResultCachePurgeDetachesInflight: a request arriving after a purge
// runs its own search instead of coalescing onto a pre-purge one, and the
// pre-purge search, finishing last, neither overwrites the fresh entry nor
// unregisters the fresh leader.
func TestResultCachePurgeDetachesInflight(t *testing.T) {
	c := newResultCache(4)
	stale := &searchAnswer{candidates: 1}
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			<-gate
			return stale, nil
		})
	}()
	waitForWaiter(t, c, key("q"))
	c.purge()

	// A post-purge leader, itself blocked, must own the key's call entry
	// when the stale leader finishes.
	fresh := &searchAnswer{candidates: 2}
	gate2 := make(chan struct{})
	freshDone := make(chan struct{})
	go func() {
		defer close(freshDone)
		got, hit, err := c.do(context.Background(), key("q"), func() (*searchAnswer, error) {
			<-gate2
			return fresh, nil
		})
		if err != nil || hit || got != fresh {
			t.Errorf("post-purge request coalesced onto the pre-purge search: res %p hit %v err %v", got, hit, err)
		}
	}()
	waitForWaiter(t, c, key("q"))
	close(gate)
	<-leaderDone
	c.mu.Lock()
	_, registered := c.calls[key("q")]
	c.mu.Unlock()
	if !registered {
		t.Fatal("the pre-purge leader deleted the post-purge leader's call")
	}
	close(gate2)
	<-freshDone
	if got, ok := c.get(key("q")); !ok || got != fresh {
		t.Fatalf("cache holds %p, want the post-purge result %p", got, fresh)
	}
}
