package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"wikisearch"
	"wikisearch/internal/server"
	"wikisearch/internal/storage"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Spec    workloadSpec
	Seed    int64
	Seconds float64
	Trace   bool
	OutDir  string // dumps, span files and reports go here
	// SetupReps is how many times the whole set-up runs; setup_s is the
	// median. The traced run sets up once.
	SetupReps int
}

// loadPhase is how long the run keeps its load up: all of -seconds, or half
// of it when the other half goes to the traced layer sample.
func (cfg runConfig) loadPhase() time.Duration {
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		d /= 2
	}
	return d
}

// setupReps is the default number of set-ups per end-to-end run.
const setupReps = 3

// verifySample is how many queries are re-run on the reference path after
// the measured phase.
const verifySample = 64

// hitShareBand is where the http-hot cache hit share must land: away from
// 0.5 and 0.95, so that the median stays on the hit path and p95 on the
// miss path.
var hitShareBand = [2]float64{0.70, 0.90}

// instance is one set-up system under test.
type instance struct {
	spec    workloadSpec
	eng     *wikisearch.Engine
	live    *liveServer // nil for in-process workloads
	clients int
	stages  stageTimes
}

func (in *instance) close() error {
	var err error
	if in.live != nil {
		err = in.live.stop()
	}
	return errors.Join(err, in.eng.Close())
}

func (spec workloadSpec) mutatorOptions() *wikisearch.MutatorOptions {
	if spec.WriteRate == 0 {
		return nil
	}
	return &wikisearch.MutatorOptions{CompactAfterOps: spec.CompactAfter}
}

// inputs are the generated inputs of a run; the system under test receives
// nothing else.
type inputs struct {
	pool    []string
	order   []int32
	batches []mutBatch
}

// makeInputs generates the run's inputs from the saved dump.
func makeInputs(spec workloadSpec, path string, seed int64, load time.Duration) (*inputs, error) {
	d, err := storage.LoadDumpFile(path)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	in := &inputs{pool: buildPool(d.Graph, d.Index, spec)}
	if len(in.pool) == 0 {
		return nil, fmt.Errorf("%s: empty query population on %s", spec.Name, spec.Preset)
	}
	in.order = visitOrder(spec, len(in.pool), seed)
	if spec.WriteRate > 0 {
		count := max(int(float64(spec.WriteRate)*load.Seconds()), 1)
		if in.batches, err = mutationBatches(d.Graph, spec, count, seed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// setUp performs one full set-up: generate, build, save, mmap-load, warm up
// and (for HTTP workloads) start serving, under the server's production
// defaults. The first set-up is handed no inputs and generates them after
// the load, outside the timed stages; it returns them for the next ones.
func setUp(cfg runConfig, path string, clients int, inp *inputs) (*instance, *inputs, error) {
	spec := cfg.Spec
	st, err := buildDump(spec.Preset, path)
	if err != nil {
		return nil, nil, err
	}
	eng, load, err := loadEngine(path)
	if err != nil {
		return nil, nil, err
	}
	st.Load = load
	inst := &instance{spec: spec, eng: eng, clients: clients}
	if inp == nil {
		inp, err = makeInputs(spec, path, cfg.Seed, cfg.loadPhase())
	}
	if err == nil {
		st.FirstQuery, st.Warm, err = warmUp(eng, inp.pool, clients)
	}
	if err == nil && spec.HTTP {
		t := time.Now()
		inst.live, err = serve(eng, server.Config{}, spec.mutatorOptions())
		st.Serve = time.Since(t)
	}
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	inst.stages = st
	return inst, inp, nil
}

// searcher returns the workload's search path and a function releasing its
// connections.
func (in *instance) searcher(pool []string) (searcher, func()) {
	if in.live == nil {
		return inProcess(in.eng, pool), func() {}
	}
	return overHTTP(in.live.base, pool, in.clients)
}

// loadResult is what one load phase observed.
type loadResult struct {
	samples []sample
	acks    []ack
}

// drive runs the workload's load for dur: the closed-loop searchers and,
// for mutate-mix, the open-loop writer beside them.
func (in *instance) drive(inp *inputs, dur time.Duration) loadResult {
	do, release := in.searcher(inp.pool)
	defer release()
	var (
		res loadResult
		wg  sync.WaitGroup
	)
	if len(inp.batches) > 0 {
		wg.Add(1)
		begin := time.Now()
		go func() {
			defer wg.Done()
			res.acks = openLoop(in.live.base, inp.batches, in.spec.WriteRate, begin)
		}()
	}
	res.samples = closedLoop(in.clients, dur, 0, inp.order, do)
	wg.Wait()
	return res
}

// prefill brings a Zipf workload's result cache to the state a previous
// pass would have left it in, by running the tail of the pass untimed.
func (in *instance) prefill(inp *inputs) {
	if in.spec.Zipf <= 0 || in.live == nil {
		return
	}
	const tail = 768 // three times the LRU
	order := inp.order[max(len(inp.order)-tail, 0):]
	do, release := in.searcher(inp.pool)
	defer release()
	closedLoop(in.clients, time.Hour, int64(len(order)), order, do)
}

// report is the outcome of one run.
type report struct {
	Env       envStamp               `json:"env"`
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Preset    string                 `json:"preset"`
	Loop      string                 `json:"loop"`
	Clients   int                    `json:"clients"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Pool      int                    `json:"pool"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"` // first few, for the log
	Guards    []string               `json:"guards,omitempty"`   // violated guards
	Searches  int                    `json:"searches"`           // samples behind the latency metrics
	Passes    int                    `json:"passes"`             // whole passes over the visit order measured
	PassQPS   []float64              `json:"pass_qps"`           // throughput of each pass: how steady the machine was within the run
	Beyond    int                    `json:"beyond_p95"`         // samples past the reported p95
	HitShare  float64                `json:"hit_share"`
	Stolen    float64                `json:"stolen_cpu_share"` // of the machine's CPU time during the load phase, taken by the hypervisor
	Writes    int                    `json:"writes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes one workload once and reports on it.
func run(cfg runConfig) (*report, error) {
	spec := cfg.Spec
	nproc := runtime.GOMAXPROCS(0)
	clients := spec.Clients
	if clients == 0 || clients > nproc {
		clients = nproc
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-%d.wskb", spec.Name, os.Getpid()))
	defer os.Remove(path)

	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	var (
		inp     *inputs
		inst    *instance
		setups  []float64
		metrics = metricSet{}
	)
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			// Every set-up starts from a collected heap, as a fresh
			// process would: what the previous one left must not count
			// towards this one's peak.
			inst = nil
			debug.FreeOSMemory()
		}
		var err error
		if inst, inp, err = setUp(cfg, path, clients, inp); err != nil {
			return nil, err
		}
		setups = append(setups, inst.stages.total().Seconds())
	}
	defer func() { inst.close() }()

	g := inst.eng.Graph()
	rep := &report{
		Env:      stampEnv(spec.Preset, g.NumNodes(), g.NumEdges()),
		Workload: spec.Name, Why: spec.Why, Preset: spec.Preset, Loop: spec.Loop,
		Clients: clients, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Pool: len(inp.pool),
	}
	metrics["setup_s"] = median(setups)

	inst.prefill(inp)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(inst, inp, metrics)
		tr.beforeLoad()
	}
	stolen0, ticks0 := cpuTicks()
	res := inst.drive(inp, cfg.loadPhase())
	stolen1, ticks1 := cpuTicks()
	rep.Stolen = ratio(stolen1-stolen0, ticks1-ticks0)
	rss, err := residentMB()
	if err != nil {
		return nil, err
	}
	metrics["rss_mb"] = rss
	if cfg.Trace {
		tr.afterLoad(res)
	}

	rep.searchMetrics(spec, res.samples, inp.pool, len(inp.order), metrics)
	if spec.WriteRate > 0 {
		rep.checkWrites(inst, inp, res.acks)
	}
	rep.checkAnswers(inst, inp, res.samples)
	if cfg.Trace {
		if err := tr.layers(cfg, path); err != nil {
			return nil, err
		}
	}
	peak, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	metrics["process.peak_rss_mb"] = peak

	rep.Correct = rep.Failed == 0 && len(rep.Guards) == 0
	if cfg.Trace {
		skip := map[string]bool{}
		if runtime.NumCPU() == 1 {
			// One core cannot show a parallel speed-up; write none.
			skip["parallel.speedup"], skip["parallel.efficiency"] = true, true
		}
		rep.Metrics = metrics.render(perLayer, skip)
	} else {
		rep.Metrics = metrics.render(endToEnd, nil)
	}
	return rep, nil
}

// wholePasses splits the samples (ordered by position) into the complete
// passes over the visit order, so that every pass — of this run and of any
// other, whatever its seed and however many searches fit into its time —
// holds the same multiset of queries. A run too short for one pass yields
// everything it has as a single group.
func wholePasses(samples []sample, pass int) [][]sample {
	if len(samples) == 0 {
		return nil
	}
	n := int(samples[len(samples)-1].pos+1) / pass
	if n == 0 {
		return [][]sample{samples}
	}
	passes := make([][]sample, n)
	for i, start := 0, 0; i < n; i++ {
		end := start + sort.Search(len(samples)-start, func(j int) bool {
			return samples[start+j].pos >= int64((i+1)*pass)
		})
		passes[i] = samples[start:end]
		start = end
	}
	return passes
}

// searchMetrics turns the measured searches into the latency and throughput
// metrics and counts failed searches. Each metric is computed per whole pass
// and the median over the passes is reported: the passes do identical work,
// so they differ only by what the machine did meanwhile, and the median
// drops a pass that a burst of stolen CPU or a collection cycle hit.
func (r *report) searchMetrics(spec workloadSpec, samples []sample, pool []string, pass int, m metricSet) {
	r.Attempted += len(samples)
	hits := 0
	for i := range samples {
		if s := &samples[i]; s.err != nil {
			r.fail("search %q: %v", pool[s.query], s.err)
		} else if s.hit {
			hits++
		}
	}
	if len(samples) > 0 {
		r.HitShare = float64(hits) / float64(len(samples))
	}
	if spec.Zipf > 0 && (r.HitShare < hitShareBand[0] || r.HitShare > hitShareBand[1]) {
		r.Guards = append(r.Guards, fmt.Sprintf("cache hit share %.3f outside [%.2f, %.2f]",
			r.HitShare, hitShareBand[0], hitShareBand[1]))
	}

	passes := wholePasses(samples, pass)
	if len(passes) == 0 {
		return
	}
	r.Passes = len(passes)
	var p50, p95, qps []float64
	var began time.Duration // when the previous pass's last search ended
	for _, ps := range passes {
		lat := make([]float64, len(ps))
		ended := began
		for i := range ps {
			lat[i] = ps[i].latencyMs()
			ended = max(ended, ps[i].end)
		}
		sort.Float64s(lat)
		v50, _ := percentile(lat, 50)
		v95, beyond := percentile(lat, 95)
		p50, p95 = append(p50, v50), append(p95, v95)
		qps = append(qps, float64(len(ps))/(ended-began).Seconds())
		began = ended
		r.Searches += len(ps)
		r.Beyond += beyond
	}
	m["search_p50_ms"] = median(p50)
	m["search_p95_ms"] = median(p95)
	m["search_qps"] = median(qps)
	r.PassQPS = qps
}

// reference answers query q on the reference path: in-process, sequential,
// one thread. The paper's answers depend on none of Tnum, batching or
// caching, so every other path must digest the same.
func reference(eng *wikisearch.Engine, q string) (outcome, error) {
	res, err := eng.Search(context.Background(),
		wikisearch.Query{Text: q, Variant: wikisearch.Sequential, Threads: 1})
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: digestResult(res), answers: len(res.Answers)}, nil
}

// references answers the given population queries on the reference path,
// spread over the cores.
func references(eng *wikisearch.Engine, pool []string, queries []int) ([]outcome, []error) {
	outs, errs := make([]outcome, len(queries)), make([]error, len(queries))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				outs[i], errs[i] = reference(eng, pool[queries[i]])
			}
		}(w)
	}
	wg.Wait()
	return outs, errs
}

// checkAnswers compares what the run returned with the reference path.
// Untimed; mismatches count as failed operations.
//
// On a static graph every answer to a query must digest alike, and a seeded
// sample of them is re-derived on the reference path. Under the write
// stream the graph moved while the reader ran, so the sample is fetched
// again over HTTP once the writer and the compactor are quiet and compared
// with the reference on that final state.
func (r *report) checkAnswers(inst *instance, inp *inputs, samples []sample) {
	// The reference must not share a batch with anything.
	inst.eng.DisableBatching()
	seen := map[int32]outcome{}
	var distinct []int
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		first, ok := seen[s.query]
		if !ok {
			seen[s.query] = s.outcome
			distinct = append(distinct, int(s.query))
		} else if inst.spec.WriteRate == 0 && first.digest != s.digest {
			r.fail("search %q: two answers to one query differ", inp.pool[s.query])
		}
	}
	sort.Ints(distinct)
	var queries []int
	for _, i := range sampleIndices(len(distinct), verifySample, r.Seed) {
		queries = append(queries, distinct[i])
	}
	if inst.spec.WriteRate > 0 {
		// A search in flight across the last publish stores its
		// pre-publish result after the publish purged the cache (the server
		// purges on publish but does not fence late stores), and would be
		// served here as the final state. Empty the cache first, so every
		// sampled query is recomputed on the final overlay.
		inst.live.srv.PurgeCache()
		c := newHTTPClient()
		defer c.CloseIdleConnections()
		for _, q := range queries {
			out, err := fetchSearch(c, searchURL(inst.live.base, inp.pool[q]))
			if err != nil {
				r.Attempted++
				r.fail("final state: %v", err)
				delete(seen, int32(q))
				continue
			}
			seen[int32(q)] = out
		}
	}
	refs, errs := references(inst.eng, inp.pool, queries)
	for i, q := range queries {
		got, ok := seen[int32(q)]
		if !ok {
			continue // already counted as a failed fetch
		}
		r.Attempted++
		switch {
		case errs[i] != nil:
			r.fail("reference %q: %v", inp.pool[q], errs[i])
		case got.answers == 0 && refs[i].answers > 0:
			r.fail("search %q: empty answer where the reference has %d", inp.pool[q], refs[i].answers)
		case got.digest != refs[i].digest:
			r.fail("search %q: digest %016x differs from the reference's %016x", inp.pool[q], got.digest, refs[i].digest)
		}
	}
}

// latePeriodShare is the share of write batches the generator itself may
// send more than one period late before the run is void.
const latePeriodShare = 0.01

// checkWrites verifies the write stream: every batch acknowledged, the
// generator on schedule, the epoch at least the number of acknowledged
// publishes, and every planted token searchable and answered by its node.
func (r *report) checkWrites(inst *instance, inp *inputs, acks []ack) {
	r.Writes = len(acks)
	r.Attempted += len(acks)
	period := time.Second / time.Duration(inst.spec.WriteRate)
	late, published := 0, 0
	for i := range acks {
		a := &acks[i]
		if a.err != nil {
			r.fail("write batch %d: %v", a.batch, a.err)
			continue
		}
		published++
		if a.late > period {
			late++
		}
	}
	if float64(late) > latePeriodShare*float64(len(acks)) {
		r.Guards = append(r.Guards, fmt.Sprintf("write generator ran over one period late on %d of %d batches", late, len(acks)))
	}

	c := newHTTPClient()
	defer c.CloseIdleConnections()
	// Let a compaction the last publish woke finish, so the final state
	// holds still under the checks below.
	var stats server.StatsResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var err error
		if stats, err = fetchStats(c, inst.live.base); err != nil {
			r.Attempted++
			r.fail("%v", err)
			return
		}
		if stats.Mutation == nil || stats.Mutation.DeltaOps < inst.spec.CompactAfter || time.Now().After(deadline) {
			break
		}
	}
	r.Attempted++
	if stats.Epoch < uint64(published) {
		r.fail("/v1/stats epoch %d is below the %d acknowledged publishes", stats.Epoch, published)
	}
	for i := range inp.batches {
		b := &inp.batches[i]
		if b.Plant == "" || acks[i].err != nil {
			continue
		}
		r.Attempted++
		env, _, err := fetchEnvelope(c, searchURL(inst.live.base, b.Plant))
		switch {
		case err != nil:
			r.fail("planted token %s: %v", b.Plant, err)
		case !hasNode(env, b.NewNodes[0]):
			r.fail("planted token %s: node %d is not in the answers", b.Plant, b.NewNodes[0])
		}
	}
}

func hasNode(env *server.V1SearchResponse, id int64) bool {
	for _, a := range env.Results {
		for _, n := range a.Nodes {
			if int64(n.ID) == id {
				return true
			}
		}
	}
	return false
}

// fetchStats reads GET /v1/stats.
func fetchStats(c *http.Client, base string) (server.StatsResponse, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return server.StatsResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.StatsResponse{}, err
	}
	var env server.V1StatsResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Stats == nil {
		return server.StatsResponse{}, fmt.Errorf("GET /v1/stats: status %d: %.200s", resp.StatusCode, body)
	}
	return *env.Stats, nil
}
