package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wikisearch"
	"wikisearch/internal/server"
)

// digester folds an answer list into one 64-bit digest: the search depth,
// then per answer its central node id, depth and score rounded to 1e-9.
// Two execution paths agree on a query exactly when their digests do.
type digester struct{ buf []byte }

func (d *digester) add(v int64) {
	for i := 0; i < 8; i++ {
		d.buf = append(d.buf, byte(v>>(8*i)))
	}
}

func (d *digester) answer(central int64, depth int, score float64) {
	d.add(central)
	d.add(int64(depth))
	d.add(int64(math.Round(score * 1e9)))
}

func (d *digester) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

// digestResult digests an in-process result.
func digestResult(res *wikisearch.Result) uint64 {
	var d digester
	d.add(int64(res.Depth))
	for i := range res.Answers {
		a := &res.Answers[i]
		d.answer(int64(a.Central), a.Depth, a.Score)
	}
	return d.sum()
}

// digestEnvelope digests a /v1/search response; the central node is the one
// the payload flags.
func digestEnvelope(env *server.V1SearchResponse) uint64 {
	var d digester
	if env.Stats != nil {
		d.add(int64(env.Stats.Depth))
	}
	for _, a := range env.Results {
		central := int64(-1)
		for _, n := range a.Nodes {
			if n.Central {
				central = int64(n.ID)
			}
		}
		d.answer(central, a.Depth, a.Score)
	}
	return d.sum()
}

// outcome is what one search returned to its client.
type outcome struct {
	digest  uint64
	answers int
	hit     bool // X-Cache: HIT
	bytes   int  // response body size
}

// searcher runs population query `query` on behalf of client `client`.
type searcher func(client, query int) (outcome, error)

// inProcess searches through Engine.Search with Tnum = GOMAXPROCS.
func inProcess(eng *wikisearch.Engine, pool []string) searcher {
	return func(_, query int) (outcome, error) {
		res, err := eng.Search(context.Background(), wikisearch.Query{Text: pool[query]})
		if err != nil {
			return outcome{}, err
		}
		return outcome{digest: digestResult(res), answers: len(res.Answers)}, nil
	}
}

// newHTTPClient returns a client that holds one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// searchURL is the GET /v1/search URL of a query with the server's default
// k, α and λ.
func searchURL(base, q string) string { return base + "/v1/search?q=" + url.QueryEscape(q) }

// fetchEnvelope issues one GET /v1/search and decodes the envelope; anything
// but a 200 is an error.
func fetchEnvelope(c *http.Client, u string) (*server.V1SearchResponse, outcome, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, outcome{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, outcome{}, fmt.Errorf("GET %s: status %d: %.200s", u, resp.StatusCode, body)
	}
	var env server.V1SearchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, outcome{}, fmt.Errorf("GET %s: %w", u, err)
	}
	return &env, outcome{
		digest:  digestEnvelope(&env),
		answers: len(env.Results),
		hit:     resp.Header.Get("X-Cache") == "HIT",
		bytes:   len(body),
	}, nil
}

// fetchSearch is fetchEnvelope for callers that only digest the answer.
func fetchSearch(c *http.Client, u string) (outcome, error) {
	_, out, err := fetchEnvelope(c, u)
	return out, err
}

// overHTTP searches through GET /v1/search; every client has its own
// connection, which release closes.
func overHTTP(base string, pool []string, clients int) (do searcher, release func()) {
	urls := make([]string, len(pool))
	for i, q := range pool {
		urls[i] = searchURL(base, q)
	}
	conns := make([]*http.Client, clients)
	for i := range conns {
		conns[i] = newHTTPClient()
	}
	do = func(client, query int) (outcome, error) { return fetchSearch(conns[client], urls[query]) }
	release = func() {
		for _, c := range conns {
			c.CloseIdleConnections()
		}
	}
	return do, release
}

// sample is one measured search.
type sample struct {
	pos        int64 // position in the visit order
	query      int32
	start, end time.Duration // since the phase began
	outcome
	err error
}

func (s *sample) latencyMs() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// closedLoop drives `clients` goroutines until dur has passed or `limit`
// positions are taken (0 means no limit): each takes the next position of
// the visit order, searches, and only then takes another. The samples come
// back ordered by position.
func closedLoop(clients int, dur time.Duration, limit int64, order []int32, do searcher) []sample {
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		per    = make([][]sample, clients)
		begin  = time.Now()
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Since(begin)
				if start >= dur {
					return
				}
				pos := cursor.Add(1) - 1
				if limit > 0 && pos >= limit {
					return
				}
				query := order[pos%int64(len(order))]
				out, err := do(c, int(query))
				per[c] = append(per[c], sample{
					pos: pos, query: query, start: start, end: time.Since(begin), outcome: out, err: err,
				})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	return all
}

// ack is one acknowledged (or failed) write batch.
type ack struct {
	batch int
	// due is when the schedule wanted the batch sent, sent when it left,
	// end when the acknowledgement was read; all since the phase began.
	due, sent, end time.Duration
	// late is the part of sent-due the generator itself caused: time past
	// both the due time and the previous acknowledgement.
	late  time.Duration
	stats server.V1MutateStats
	err   error
}

// latencyMs is timed from the due time, so a stall that delays later
// batches is charged to them.
func (a *ack) latencyMs() float64 { return float64(a.end-a.due) / float64(time.Millisecond) }

// mutateEnvelope is the /v1/mutate response.
type mutateEnvelope struct {
	Results []server.V1MutateResult `json:"results"`
	Stats   *server.V1MutateStats   `json:"stats"`
	Error   *server.V1Error         `json:"error"`
}

// postBatch sends one write batch and checks its acknowledgement: every op
// applied, published, and the new nodes given the ids the stream predicted.
func postBatch(c *http.Client, base string, b *mutBatch) (server.V1MutateStats, error) {
	resp, err := c.Post(base+"/v1/mutate", "application/json", bytes.NewReader(b.Body))
	if err != nil {
		return server.V1MutateStats{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return server.V1MutateStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.V1MutateStats{}, fmt.Errorf("POST /v1/mutate: status %d: %.200s", resp.StatusCode, body)
	}
	var env mutateEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return server.V1MutateStats{}, fmt.Errorf("POST /v1/mutate: %w", err)
	}
	if env.Stats == nil || !env.Stats.Published || env.Stats.Applied != len(env.Results) {
		return server.V1MutateStats{}, fmt.Errorf("POST /v1/mutate: batch not fully applied and published: %.200s", body)
	}
	var ids []int64
	for _, r := range env.Results {
		if r.Node != nil {
			ids = append(ids, *r.Node)
		}
	}
	if !slices.Equal(ids, b.NewNodes) {
		return *env.Stats, fmt.Errorf("POST /v1/mutate: new nodes got ids %v, stream expects %v", ids, b.NewNodes)
	}
	return *env.Stats, nil
}

// openLoop posts the batches on one connection at `rate` per second,
// whatever the acknowledgements do: a batch whose due time has passed goes
// out as soon as the connection is free.
func openLoop(base string, batches []mutBatch, rate int, begin time.Time) []ack {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	period := time.Second / time.Duration(rate)
	acks := make([]ack, len(batches))
	var prevEnd time.Duration
	for i := range batches {
		a := &acks[i]
		a.batch = i
		a.due = time.Duration(i) * period
		if wait := a.due - time.Since(begin); wait > 0 {
			time.Sleep(wait)
		}
		a.sent = time.Since(begin)
		a.late = a.sent - max(a.due, prevEnd)
		a.stats, a.err = postBatch(c, base, &batches[i])
		a.end = time.Since(begin)
		prevEnd = a.end
	}
	return acks
}
