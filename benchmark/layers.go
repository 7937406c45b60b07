package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wikisearch"
	"wikisearch/internal/core"
	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
	"wikisearch/internal/server"
	"wikisearch/internal/storage"
	"wikisearch/internal/text"
	"wikisearch/internal/weight"
)

// The traced run. Nothing inside the system under test is touched: the
// benchmark times its own calls into each layer's public entry point and
// reads what the layers already return or export.
//
// The same sample of queries is run at four nested call boundaries, outermost
// first:
//
//	http    GET /v1/search over the loopback socket (result cache off)
//	server  Server.ServeHTTP on an httptest recorder (result cache off)
//	engine  Engine.Search
//	core    the kernel inside that call, as Result.Total reports it, and
//	        core.SearchState.Search on an Input the benchmark prepares
//
// Each boundary is a span; a layer's self time is its span minus its
// child's, so
//
//	http.roundtrip = http.self + server.self + engine.self + core.search
//
// The batcher sits inside Engine.Search, ahead of the kernel: its window is
// part of the engine's self time here, and GET /metrics says how long
// batches waited under the workload's real load.

// layerReps is how often each query runs at each layer; the per-query median
// is kept.
const layerReps = 3

// span is one timed call into a layer.
type span struct {
	Trace   int    `json:"trace"` // the query's position in the visit order or sample
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"` // the enclosing layer's span name
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer collects the per-layer metrics of one traced run.
type tracer struct {
	inst *instance
	inp  *inputs
	m    metricSet

	began time.Time
	spans []span

	// Baselines read before the load phase.
	scrape0         map[string]float64
	created, reused int64
	loadBegan       time.Duration // since began
	stopSampler     chan struct{}
	samplerDone     sync.WaitGroup
	oldLiveMax      int
}

func newTracer(inst *instance, inp *inputs, m metricSet) *tracer {
	return &tracer{inst: inst, inp: inp, m: m, began: time.Now()}
}

func (t *tracer) record(trace, rep int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Trace: trace, Rep: rep, Name: name, Parent: parent,
		StartNs: start.Sub(t.began).Nanoseconds(), EndNs: end.Sub(t.began).Nanoseconds(),
	})
}

// scrapeMetrics reads the server's Prometheus text through its own handler
// and returns every sample keyed by its series (name plus labels).
func scrapeMetrics(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// beforeLoad takes the counter baselines and, for a mutable server, starts
// sampling the epoch gauges the engine exports.
func (t *tracer) beforeLoad() {
	defer func() { t.loadBegan = time.Since(t.began) }()
	t.created, t.reused = t.inst.eng.SearchStateStats()
	if t.inst.live == nil {
		return
	}
	t.scrape0 = scrapeMetrics(t.inst.live.srv)
	if t.inst.spec.WriteRate == 0 {
		return
	}
	t.stopSampler = make(chan struct{})
	t.samplerDone.Add(1)
	go func() {
		defer t.samplerDone.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stopSampler:
				return
			case <-tick.C:
				t.oldLiveMax = max(t.oldLiveMax, t.inst.eng.EpochStats().OldLive)
			}
		}
	}()
}

// afterLoad turns what the load phase observed from outside — response
// headers and sizes, acknowledgement stats, GET /metrics and /v1/stats
// deltas, the engine's pool counters — into the counters of the server,
// batcher, engine and mutation layers.
func (t *tracer) afterLoad(res loadResult) {
	m := t.m
	created, reused := t.inst.eng.SearchStateStats()
	m["engine.state_reuse_share"] = ratio(float64(reused-t.reused), float64(created-t.created+reused-t.reused))

	var hits, bytes float64
	for i := range res.samples {
		s := &res.samples[i]
		t.spans = append(t.spans, span{Trace: int(s.pos), Name: "load.search",
			StartNs: (t.loadBegan + s.start).Nanoseconds(), EndNs: (t.loadBegan + s.end).Nanoseconds()})
		if s.hit {
			hits++
		}
		bytes += float64(s.bytes)
	}
	if t.inst.live == nil {
		return
	}
	n := float64(len(res.samples))
	m["server.cache_hit_share"] = ratio(hits, n)
	m["server.response_bytes"] = ratio(bytes, n)

	now := scrapeMetrics(t.inst.live.srv)
	delta := func(series string) float64 { return now[series] - t.scrape0[series] }
	batches := delta("wikisearch_batch_occupancy_count")
	m["batch.wait_us"] = ratio(delta("wikisearch_batch_coalesce_seconds_sum"), batches) * 1e6
	m["batch.occupancy"] = ratio(delta("wikisearch_batch_occupancy_sum"), batches)
	m["batch.solo_share"] = ratio(delta("wikisearch_batch_solo_total"), batches)
	m["server.limited_share"] = ratio(delta("wikisearch_http_limited_total"), n)
	m["server.timeout_share"] = ratio(delta("wikisearch_http_timeouts_total"), n)

	if t.inst.spec.WriteRate == 0 {
		return
	}
	close(t.stopSampler)
	t.samplerDone.Wait()
	var lat []float64
	var publishMs, backlog, late time.Duration
	var publishes, deltaMax float64
	for i := range res.acks {
		a := &res.acks[i]
		t.spans = append(t.spans, span{Trace: a.batch, Name: "load.mutate",
			StartNs: (t.loadBegan + a.due).Nanoseconds(), EndNs: (t.loadBegan + a.end).Nanoseconds()})
		if a.err != nil {
			continue
		}
		lat = append(lat, a.latencyMs())
		publishes++
		publishMs += time.Duration(a.stats.PublishMs * float64(time.Millisecond))
		deltaMax = max(deltaMax, float64(a.stats.DeltaOps))
		backlog = max(backlog, a.sent-a.due)
		late = max(late, a.late)
	}
	sort.Float64s(lat)
	m["mutate.ack_p50_ms"], _ = percentile(lat, 50)
	m["mutate.ack_p95_ms"], _ = percentile(lat, 95)
	m["mutate.publish_ms"] = ratio(float64(publishMs)/float64(time.Millisecond), publishes)
	m["mutate.delta_ops_max"] = deltaMax
	m["mutate.backlog_ms_max"] = float64(backlog) / float64(time.Millisecond)
	m["mutate.late_ms_max"] = float64(late) / float64(time.Millisecond)
	m["epoch.old_live_max"] = float64(t.oldLiveMax)

	// The publish histogram holds acknowledged publishes and background
	// compactions alike; what the acknowledgements do not account for is
	// the compactor's.
	compactions := delta("wikisearch_compactions_total")
	compactSecs := delta("wikisearch_publish_seconds_sum") - publishMs.Seconds()
	m["mutate.compactions"] = compactions
	m["mutate.compact_ms"] = ratio(max(compactSecs, 0), compactions) * 1e3
	m["epoch.retired"] = delta("wikisearch_epochs_retired_total")
}

// layer is one call boundary of the nested sample.
type layer struct {
	name   string // span name; "" records no span
	parent string // the enclosing layer's span name
	call   func(i, query int) error
	allocs bool // count heap allocations around the call
}

// layerTimes is what timeLayers measured for one layer.
type layerTimes struct {
	ms     []float64 // per sampled query: median over the repeats
	allocs float64   // heap allocations per call (0 unless counted)
}

// mean is the layer's mean per-query time. Means of per-query medians add
// and subtract like the spans they summarize, so self times telescope.
func (l layerTimes) mean() float64 { return mean(l.ms) }

// timeLayers runs every layer on every sampled query layerReps times:
// rep-major, so repeats of one query are far apart, and within a query the
// layers back to back, so the subtraction behind a self time compares
// neighbouring calls on the same warm data.
func (t *tracer) timeLayers(queries []int, layers []layer) ([]layerTimes, error) {
	out := make([]layerTimes, len(layers))
	times := make([][][]float64, len(layers))
	for l := range times {
		times[l] = make([][]float64, len(queries))
	}
	for rep := 0; rep < layerReps; rep++ {
		for i, q := range queries {
			for l := range layers {
				ly := &layers[l]
				var before uint64
				if ly.allocs {
					before = mallocs()
				}
				start := time.Now()
				err := ly.call(i, q)
				end := time.Now()
				if err != nil {
					return nil, fmt.Errorf("layer %s: %q: %w", ly.name, t.inp.pool[q], err)
				}
				if ly.allocs {
					out[l].allocs += float64(mallocs() - before)
				}
				if ly.name != "" {
					t.record(i, rep, ly.name, ly.parent, start, end)
				}
				times[l][i] = append(times[l][i], float64(end.Sub(start))/float64(time.Millisecond))
			}
		}
	}
	for l := range layers {
		out[l].allocs /= float64(len(queries) * layerReps)
		out[l].ms = make([]float64, len(queries))
		for i := range queries {
			out[l].ms[i] = median(times[l][i])
		}
	}
	return out, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// freeze, for a workload that mutated the graph, stops the writer's server
// and reloads the final state from a fresh dump, so the layer sample runs on
// a flat, memory-mapped engine like every other workload's. It returns the
// path of the dump the engine now serves: a new file when it froze one.
func (t *tracer) freeze(path string) (string, error) {
	if t.inst.spec.WriteRate == 0 {
		return path, nil
	}
	if err := t.inst.live.stop(); err != nil {
		return "", err
	}
	t.inst.live = nil
	final := strings.TrimSuffix(path, ".wskb") + "-final.wskb"
	if err := t.inst.eng.SaveFormat(final, wikisearch.FormatV3); err != nil {
		return "", err
	}
	if err := t.inst.eng.Close(); err != nil {
		return "", err
	}
	eng, _, err := loadEngine(final)
	if err != nil {
		return "", err
	}
	t.inst.eng = eng
	return final, nil
}

// layers runs the nested-boundary sample and derives the self times, the
// kernel profile, the parallel speed-up and the tracing overhead.
func (t *tracer) layers(cfg runConfig, dump string) error {
	m, spec := t.m, t.inst.spec
	st := t.inst.stages
	m["gen.generate_s"] = st.Generate.Seconds()
	m["engine.build_s"] = st.Build.Seconds()
	m["storage.save_s"] = st.Save.Seconds()
	m["storage.load_ms"] = float64(st.Load) / float64(time.Millisecond)
	m["storage.dump_mb"] = float64(st.DumpBytes) / (1 << 20)
	m["storage.first_query_ms"] = float64(st.FirstQuery) / float64(time.Millisecond)

	path, err := t.freeze(dump)
	if err != nil {
		return err
	}
	if path != dump {
		defer os.Remove(path)
	}
	eng := t.inst.eng
	queries := sampleIndices(len(t.inp.pool), spec.TraceSample, cfg.Seed+1)
	sort.Ints(queries)
	ctx := context.Background()
	search := func(q, threads int) (*wikisearch.Result, error) {
		// What the server's parser hands the engine for a bare ?q=.
		return eng.Search(ctx, wikisearch.Query{Text: t.inp.pool[q], TopK: 20, Alpha: 0.1, Lambda: 0.2, Threads: threads})
	}

	// The chain, outermost first. Its innermost span is Engine.Search: the
	// kernel below it is timed by the engine itself, in the same call.
	inEngine := kernelTimes{ms: make([][]float64, len(queries))}
	chain := []layer{{name: "engine.search", allocs: true, call: func(i, q int) error {
		res, err := search(q, 0)
		if err == nil {
			inEngine.add(i, res)
		}
		return err
	}}}
	plain := layer{call: func(_, q int) error { _, err := search(q, 0); return err }}
	if spec.HTTP {
		// A server of the workload's configuration but for the result
		// cache, so every layer below it runs on every call. Its batcher
		// stays on: with one driver each query waits out the window alone,
		// inside Engine.Search, and the wait lands in the engine's self
		// time — where the batcher's code lives.
		if t.inst.live != nil {
			if err := t.inst.live.stop(); err != nil {
				return err
			}
		}
		if t.inst.live, err = serve(eng, server.Config{CacheSize: -1}, nil); err != nil {
			return err
		}
		srv := t.inst.live.srv
		c := newHTTPClient()
		defer c.CloseIdleConnections()
		urls := make([]string, len(t.inp.pool))
		for _, q := range queries {
			urls[q] = searchURL(t.inst.live.base, t.inp.pool[q])
		}
		get := func(_, q int) error {
			resp, err := c.Get(urls[q])
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return err
		}
		chain[0].parent = "server.handler"
		chain = append([]layer{
			{name: "http.roundtrip", call: get},
			{name: "server.handler", parent: "http.roundtrip", call: func(_, q int) error {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[q], nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("status %d", rec.Code)
				}
				return nil
			}},
		}, chain...)
		plain.call = get
	}
	// First of all the outermost layer once more, recording no span: the
	// difference prices the recording.
	times, err := t.timeLayers(queries, append([]layer{plain}, chain...))
	if err != nil {
		return err
	}
	m["trace.overhead_pct"] = ratio(times[1].mean()-times[0].mean(), times[0].mean()) * 100
	engine := times[len(times)-1]
	if spec.HTTP {
		roundtrip, handler := times[1].mean(), times[2].mean()
		m["http.roundtrip_ms"] = roundtrip
		m["http.self_us"] = (roundtrip - handler) * 1e3
		m["server.handler_ms"] = handler
		m["server.self_us"] = (handler - engine.mean()) * 1e3
	}
	m["engine.search_ms"] = engine.mean()
	m["engine.self_us"] = (engine.mean() - inEngine.mean()) * 1e3
	m["engine.allocs_per_op"] = engine.allocs
	m["core.search_ms"] = inEngine.mean()
	inEngine.phases(m)

	if err := t.coreLayer(path, queries); err != nil {
		return err
	}

	if runtime.NumCPU() > 1 {
		// Tnum = 1 against Tnum = nproc, batch window off for both. One pass
		// each, not interleaved: alternating Tnum on the pooled search
		// states would rebuild their worker pools on every call.
		eng.DisableBatching()
		var speed [2]float64
		for i, threads := range []int{runtime.GOMAXPROCS(0), 1} {
			ms, err := t.timeLayers(queries, []layer{{name: fmt.Sprintf("engine.search.tnum%d", threads),
				call: func(_, q int) error { _, err := search(q, threads); return err }}})
			if err != nil {
				return err
			}
			speed[i] = ms[0].mean()
		}
		m["parallel.speedup"] = ratio(speed[1], speed[0])
		m["parallel.efficiency"] = m["parallel.speedup"] / float64(runtime.GOMAXPROCS(0))
	}
	m["weight.level_computes"] = float64(eng.LevelComputations())
	return t.writeSpans(cfg)
}

// kernelTimes collects what Engine.Search reports about the kernel run
// inside it: Result.Total and Result.Phases are core.Result.Profile's times,
// taken by the kernel within the very call the benchmark timed from outside.
// Subtracting them from the engine span compares one call with itself;
// timing a second kernel on a search state of the benchmark's own would
// compare two memory layouts, which differ by a few percent either way.
type kernelTimes struct {
	ms         [][]float64 // per sampled query, per repeat: Result.Total
	phase      map[string]time.Duration
	candidates float64
	calls      float64
}

func (k *kernelTimes) add(i int, res *wikisearch.Result) {
	k.ms[i] = append(k.ms[i], float64(res.Total)/float64(time.Millisecond))
	if k.phase == nil {
		k.phase = map[string]time.Duration{}
	}
	for name, d := range res.Phases {
		k.phase[name] += d
	}
	k.candidates += float64(res.Candidates)
	k.calls++
}

// mean is the mean over the sampled queries of the per-query median, like
// layerTimes.mean.
func (k *kernelTimes) mean() float64 {
	med := make([]float64, len(k.ms))
	for i := range k.ms {
		med[i] = median(k.ms[i])
	}
	return mean(med)
}

// phases reports the kernel's per-phase times, per search.
func (k *kernelTimes) phases(m metricSet) {
	for metric, p := range map[string]core.Phase{
		"core.init_ms": core.PhaseInit, "core.enqueue_ms": core.PhaseEnqueue,
		"core.identify_ms": core.PhaseIdentify, "core.expand_ms": core.PhaseExpand,
		"core.topdown_ms": core.PhaseTopDown,
	} {
		m[metric] = ratio(float64(k.phase[p.String()])/float64(time.Millisecond), k.calls)
	}
	m["core.candidates"] = ratio(k.candidates, k.calls)
}

// coreLayer is the fourth boundary: core.SearchState.Search, called directly
// on an Input the benchmark prepares the way the engine does —
// text.QueryTerms, index lookup, weight.Levels. It prices that preparation
// and reads what only core.Result.Profile holds: the search-shape counters,
// and how much of the call no profiled phase claims. The kernel reads the
// engine's own graph and weight arrays; the engine keeps its index to
// itself, so the postings come from a second load of the dump it serves.
func (t *tracer) coreLayer(path string, queries []int) error {
	m, eng := t.m, t.inst.eng
	d, err := storage.LoadDumpFile(path)
	if err != nil {
		return err
	}
	defer d.Close()
	g, weights, avgDist := eng.Graph(), eng.Weights(), eng.AvgDistance()
	threads := runtime.GOMAXPROCS(0)
	const alpha = 0.1

	start := time.Now()
	pool := parallel.NewPool(threads)
	levels := weight.Levels(weights, avgDist, alpha, pool)
	pool.Close()
	m["weight.levels_ms"] = float64(time.Since(start)) / float64(time.Millisecond)

	inputs := make([]core.Input, len(queries))
	var prepare time.Duration
	var terms, postings float64
	for i, q := range queries {
		start := time.Now()
		ts := text.QueryTerms(t.inp.pool[q])
		sources := make([][]graph.NodeID, len(ts))
		for j, term := range ts {
			sources[j] = d.Index.LookupTerm(term)
		}
		prepare += time.Since(start)
		terms += float64(len(ts))
		for _, s := range sources {
			postings += float64(len(s))
		}
		inputs[i] = core.Input{G: g, Weights: weights, Levels: levels, Terms: ts, Sources: sources}
	}
	n := float64(len(queries))
	m["text.prepare_us"] = float64(prepare) / float64(time.Microsecond) / n
	m["text.terms_per_query"] = terms / n
	m["text.postings_per_query"] = postings / n

	params := core.Params{TopK: 20, Alpha: alpha, Lambda: 0.2, AvgDist: avgDist, Threads: threads}
	state := core.NewSearchState()
	defer state.Close()
	state.SetTracing(true) // the engine's always-on span rings are part of the kernel's cost
	var prof core.Profile  // summed over every call
	var span time.Duration
	times, err := t.timeLayers(queries, []layer{{name: "core.search", parent: "engine.search", allocs: true,
		call: func(i, _ int) error {
			start := time.Now()
			res, err := state.Search(inputs[i], params)
			if err != nil {
				return err
			}
			span += time.Since(start)
			prof.Add(&res.Profile)
			return nil
		}}})
	if err != nil {
		return err
	}
	calls := n * layerReps
	m["core.allocs_per_op"] = times[0].allocs
	m["core.levels"] = float64(prof.Levels) / calls
	m["core.frontier_nodes"] = float64(prof.FrontierTotal) / calls
	m["core.edges_scanned"] = float64(prof.EdgesScanned) / calls
	m["core.edges_per_s"] = ratio(float64(prof.EdgesScanned), prof.Phases[core.PhaseExpand].Seconds())
	m["core.unattributed_pct"] = ratio(float64(span-prof.Total()), float64(span)) * 100
	return nil
}

// writeSpans writes the run's spans to the output directory.
func (t *tracer) writeSpans(cfg runConfig) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("spans-%s-seed%d.json", cfg.Spec.Name, cfg.Seed)
	return os.WriteFile(filepath.Join(cfg.OutDir, name), data, 0o644) //wikisearch:volatile trace output, regenerated by every traced run
}
