package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"wikisearch/internal/trace"
)

// Pool is a reusable fork/join worker pool with dynamic scheduling, the Go
// analogue of the paper's OpenMP `schedule(dynamic)` loops: once a worker
// finishes a chunk it grabs the next one, so skewed per-item cost (frontiers
// with very different neighbor counts) balances automatically.
//
// Workers are persistent: the first parallel phase spawns workers-1
// goroutines that park on a channel and are reused for every subsequent
// phase — across all levels of a search and across searches — instead of
// paying goroutine spawn and WaitGroup traffic per fork/join. The calling
// goroutine always participates as worker 0, so a phase wakes at most
// workers-1 helpers and a 1-worker pool never spawns anything.
//
// Phases must not overlap: a Pool runs one For/ForChunks/Run at a time (a
// mutex enforces this). The phase join supplies the happens-before edges the
// lock-free expansion relies on: every helper's writes complete before its
// completion token is received.
//
// Close releases the workers. It is optional — an unreachable Pool's workers
// are reclaimed by a finalizer — but deterministic cleanup is preferred for
// short-lived pools. A closed Pool degrades to serial execution rather than
// failing.
type Pool struct {
	workers int

	mu      sync.Mutex // serializes phases; guards started/closed
	started bool
	closed  bool
	work    chan *poolTask // parked helpers receive the phase descriptor
	done    chan struct{}  // helpers send one token per processed descriptor
	task    poolTask       // reused phase descriptor: no per-phase allocation

	// tr, when set (SetTrace), receives per-phase spans: each helper records
	// its busy time into its own ring, and the coordinator records its own
	// busy span plus the join wait — the chunk-scheduling stall signal.
	tr *trace.Buffer
}

// poolTask describes one fork/join phase. Exactly one of the fn* fields (or
// thunks) is set; next hands out dynamic-scheduling chunks. tr carries the
// pool's trace buffer to the helpers (nil when tracing is off).
type poolTask struct {
	n     int
	chunk int
	tr    *trace.Buffer
	next  atomic.Int64

	fnIdx    func(i int)
	fnIdxW   func(w, i int)
	fnChunk  func(start, end int)
	fnChunkW func(w, start, end int)
	thunks   []func()
}

// run executes the descriptor's share of work on behalf of worker w until
// the chunk counter is exhausted.
func (t *poolTask) run(w int) {
	for {
		start := int(t.next.Add(int64(t.chunk))) - t.chunk
		if start >= t.n {
			return
		}
		end := start + t.chunk
		if end > t.n {
			end = t.n
		}
		switch {
		case t.fnChunk != nil:
			t.fnChunk(start, end)
		case t.fnChunkW != nil:
			t.fnChunkW(w, start, end)
		case t.fnIdx != nil:
			for i := start; i < end; i++ {
				t.fnIdx(i)
			}
		case t.fnIdxW != nil:
			for i := start; i < end; i++ {
				t.fnIdxW(w, i)
			}
		case t.thunks != nil:
			for i := start; i < end; i++ {
				t.thunks[i]()
			}
		}
	}
}

// clear drops closure references so a parked pool does not retain caller
// state between phases.
func (t *poolTask) clear() {
	t.fnIdx, t.fnIdxW, t.fnChunk, t.fnChunkW, t.thunks = nil, nil, nil, nil, nil
}

// NewPool returns a pool that runs fork/join loops on `workers` goroutines
// (the calling goroutine plus workers-1 persistent helpers, spawned lazily
// on the first parallel phase). workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the configured degree of parallelism (the paper's Tnum).
func (p *Pool) Workers() int { return p.workers }

// start spawns the persistent helpers. Called with p.mu held.
func (p *Pool) start() {
	p.started = true
	p.work = make(chan *poolTask, p.workers-1)
	p.done = make(chan struct{}, p.workers-1)
	for g := 1; g < p.workers; g++ {
		// The helper closes over only the channels — never *Pool — so an
		// unreachable Pool can be finalized while helpers are parked.
		go poolWorker(g, p.work, p.done)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
}

// poolWorker parks on work and executes phase descriptors until the channel
// closes. w is the worker's stable identity, handed to ForWorker /
// ForChunksWorker bodies for per-worker scratch indexing.
func poolWorker(w int, work <-chan *poolTask, done chan<- struct{}) {
	for t := range work {
		if t.tr.On() {
			t0 := trace.Now()
			t.run(w)
			// The ring is the helper's own and the done token below
			// publishes the write to the drain: single-writer, race-free.
			// The root package's TestTraceAssemblyConcurrent checks the
			// lane of every helper span at Tnum 4, under -race in CI.
			t.tr.Record(w, trace.KindPoolWork, t0, trace.Now(), -1, int64(t.n), 0)
		} else {
			t.run(w)
		}
		done <- struct{}{}
	}
}

// Close stops the persistent workers. Idempotent and safe to call
// concurrently with nothing; after Close the pool executes phases serially.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		close(p.work)
		runtime.SetFinalizer(p, nil)
	}
}

// dispatch runs the prepared p.task across the caller plus up to `helpers`
// parked workers and joins. Called with p.mu held and p.task populated.
func (p *Pool) dispatch(helpers int) {
	if helpers > p.workers-1 {
		helpers = p.workers - 1
	}
	if helpers > 0 && !p.closed {
		if !p.started {
			p.start()
		}
		p.task.tr = p.tr
		for i := 0; i < helpers; i++ {
			p.work <- &p.task
		}
		if p.tr.On() {
			t0 := trace.Now()
			p.task.run(0)
			own := trace.Now()
			for i := 0; i < helpers; i++ {
				<-p.done
			}
			p.tr.Record(0, trace.KindPoolWork, t0, own, -1, int64(p.task.n), int64(helpers))
			p.tr.Record(0, trace.KindPoolJoin, own, trace.Now(), -1, int64(p.task.n), int64(helpers))
		} else {
			p.task.run(0)
			for i := 0; i < helpers; i++ {
				<-p.done
			}
		}
	} else {
		p.task.run(0)
	}
	p.task.clear()
}

// SetTrace installs (or, with nil, removes) the per-worker trace buffer the
// pool's phases record spans into. The buffer must have at least Workers()
// rings (trace.Buffer.Ensure); the pool's owner wires both.
func (p *Pool) SetTrace(tr *trace.Buffer) {
	p.mu.Lock()
	p.tr = tr
	p.mu.Unlock()
}

// chunkFor picks a dynamic-scheduling chunk size: small enough to balance
// skew, large enough to amortize the atomic fetch-add. Mirrors OpenMP's
// dynamic schedule with a modest chunk.
func chunkFor(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		c = 1
	}
	if c > 1024 {
		c = 1024
	}
	return c
}

// prep stages a phase over n items. Returns the helper count.
func (p *Pool) prep(n int) int {
	p.task.n = n
	p.task.chunk = chunkFor(n, p.workers)
	p.task.next.Store(0)
	return n - 1
}

// For runs fn(i) for every i in [0, n) across the pool's workers with
// dynamic scheduling, then joins. fn must be safe for concurrent invocation
// on distinct i. With one worker it degenerates to a plain loop (the paper's
// Tnum=1 sequential baseline) with zero goroutine overhead.
func (p *Pool) For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	helpers := p.prep(n)
	p.task.fnIdx = fn
	p.dispatch(helpers)
}

// ForWorker is For with the executing worker's identity (in [0, Workers()))
// passed to fn, so bodies can index per-worker scratch without atomics. The
// caller is always worker 0.
func (p *Pool) ForWorker(n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	helpers := p.prep(n)
	p.task.fnIdxW = fn
	p.dispatch(helpers)
}

// ForChunks runs fn(start, end) over contiguous chunks of [0, n) with
// dynamic scheduling. Useful when per-chunk setup (scratch buffers) matters.
func (p *Pool) ForChunks(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		fn(0, n)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	helpers := p.prep(n)
	p.task.fnChunk = fn
	p.dispatch(helpers)
}

// ForChunksWorker is ForChunks with the executing worker's identity passed
// to fn — the expansion kernel uses it to reach its row scratch and local
// touched-word buffer.
func (p *Pool) ForChunksWorker(n int, fn func(w, start, end int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		fn(0, 0, n)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	helpers := p.prep(n)
	p.task.fnChunkW = fn
	p.dispatch(helpers)
}

// Run executes the given thunks concurrently on up to Workers goroutines and
// joins. Used by fork/join steps that are heterogeneous rather than loops.
// Thunks are fed through the persistent workers with the caller
// participating, so dispatch never serializes behind running thunks even
// when len(thunks) exceeds the worker count.
func (p *Pool) Run(thunks ...func()) {
	n := len(thunks)
	if n == 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.task.n = n
	p.task.chunk = 1
	p.task.next.Store(0)
	p.task.thunks = thunks
	p.dispatch(n - 1)
}
