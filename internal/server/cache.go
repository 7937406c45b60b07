package server

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"

	"wikisearch"
	"wikisearch/internal/text"
)

// cacheKey identifies one logically identical search. Terms are the
// normalized keyword terms (tokenized, stopword-filtered, stemmed,
// deduplicated), so "SQL rdf" and "rdf, sql, SQL!" that normalize alike
// share an entry — but only together with identical k, α and λ.
type cacheKey struct {
	terms  string
	k      int
	alpha  float64
	lambda float64
}

// cacheKeyFor derives the cache key for a query. ok is false when the
// query has no keywords after normalization; such queries always error and
// bypass the cache so the engine can report why.
func cacheKeyFor(q wikisearch.Query) (key cacheKey, ok bool) {
	terms := text.QueryTerms(q.Text)
	if len(terms) == 0 {
		return cacheKey{}, false
	}
	return cacheKey{
		terms:  strings.Join(terms, "\x1f"),
		k:      q.TopK,
		alpha:  q.Alpha,
		lambda: q.Lambda,
	}, true
}

type cacheEntry struct {
	key cacheKey
	ans *searchAnswer
}

// inflightCall is one in-progress search that concurrent identical
// requests wait on instead of duplicating the work.
type inflightCall struct {
	done chan struct{} // closed when ans/err are set
	ans  *searchAnswer
	err  error
}

// resultCache is a bounded LRU of encoded search answers with singleflight
// deduplication: at most one engine search runs per key at a time, and
// its answer is shared. A searchAnswer is immutable once built, so every
// hit and every waiter serves the same stored bytes.
//
// purge fences searches that straddle it. It bumps gen, and a leader stores
// its result only if gen is unchanged since the leader started, so a search
// that began before a publish can never repopulate the cache after the
// publish's purge. purge also detaches calls, so a request that arrives
// after the purge never coalesces onto a pre-purge search; waiters already
// parked on such a search still receive its result.
type resultCache struct {
	max int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	calls map[cacheKey]*inflightCall
	gen   uint64 // purges so far
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: map[cacheKey]*list.Element{},
		calls: map[cacheKey]*inflightCall{},
	}
}

// do returns the cached answer for key, or runs fn to compute it. hit
// reports whether the answer came from the cache or from another
// in-flight identical request. Waiters give up when their own ctx fires.
//
// When the leader dies on its own context (its client hung up or its
// deadline passed), that is not the waiters' fate — but they must not all
// retry at once: the first waiter back through the top of the loop finds
// no in-flight call, registers as the NEW leader and runs fn on its own
// context; the rest find that call and coalesce behind it. Without the
// re-election loop, one cancelled leader turns its N waiters into N
// simultaneous engine searches — a cache stampede on exactly the hot,
// already-deduplicated key.
func (c *resultCache) do(ctx context.Context, key cacheKey, fn func() (*searchAnswer, error)) (ans *searchAnswer, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			ans := el.Value.(*cacheEntry).ans
			c.mu.Unlock()
			return ans, true, nil
		}
		if call, ok := c.calls[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
				if call.err == nil {
					return call.ans, true, nil
				}
				if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
					// Leader died on its own context; re-enter to elect a
					// new one (or coalesce behind whoever got there first).
					continue
				}
				return nil, true, call.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		call := &inflightCall{done: make(chan struct{})}
		c.calls[key] = call
		gen := c.gen
		c.mu.Unlock()

		call.ans, call.err = fn()

		c.mu.Lock()
		if c.calls[key] == call { // a purge may have detached it, and a new leader taken the key
			delete(c.calls, key)
		}
		if call.err == nil && c.gen == gen {
			c.store(key, call.ans)
		}
		c.mu.Unlock()
		close(call.done)
		return call.ans, false, call.err
	}
}

// store inserts under c.mu, evicting the least recently used entry past
// the bound.
func (c *resultCache) store(key cacheKey, ans *searchAnswer) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).ans = ans
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, ans: ans})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// purge drops every cached entry and fences the in-flight searches: they
// still answer their own waiters, but neither store their answers nor take
// new waiters.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	c.items = map[cacheKey]*list.Element{}
	c.calls = map[cacheKey]*inflightCall{}
}
