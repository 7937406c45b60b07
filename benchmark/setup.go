package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"wikisearch"
	"wikisearch/internal/gen"
	"wikisearch/internal/server"
)

// stageTimes is where one set-up spent its time; the stages add up to
// setup_s and are reported one by one with -trace 1.
type stageTimes struct {
	Generate   time.Duration // internal/gen: synthesize the knowledge base
	Build      time.Duration // NewEngine: weights, index, distance sample
	Save       time.Duration // SaveFormat(FormatV3), fsynced
	Load       time.Duration // LoadEngine: mmap
	FirstQuery time.Duration // first search on the fresh mapping: page faults, activation levels
	Warm       time.Duration // the remaining warm-up searches
	Serve      time.Duration // server construction and listen
	DumpBytes  int64
}

func (s stageTimes) total() time.Duration {
	return s.Generate + s.Build + s.Save + s.Load + s.FirstQuery + s.Warm + s.Serve
}

// buildDump generates the preset, prepares an engine over it and saves the
// engine as a v3 dump at path — what wikigen does ahead of a deployment.
func buildDump(preset, path string) (stageTimes, error) {
	var st stageTimes
	cfg, err := presetConfig(preset)
	if err != nil {
		return st, err
	}
	t := time.Now()
	kb := gen.Generate(cfg)
	st.Generate = time.Since(t)

	t = time.Now()
	eng, err := wikisearch.NewEngine(kb.Graph, wikisearch.EngineOptions{})
	if err != nil {
		return st, err
	}
	eng.SetName(preset)
	st.Build = time.Since(t)

	t = time.Now()
	if err := eng.SaveFormat(path, wikisearch.FormatV3); err != nil {
		return st, err
	}
	st.Save = time.Since(t)
	if fi, err := os.Stat(path); err == nil {
		st.DumpBytes = fi.Size()
	}
	return st, eng.Close()
}

// loadEngine loads the dump the way wikiserve does and refuses anything but
// a memory-mapped engine: a heap-decoded one would measure another system.
func loadEngine(path string) (*wikisearch.Engine, time.Duration, error) {
	t := time.Now()
	eng, err := wikisearch.LoadEngine(path, wikisearch.EngineOptions{})
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t)
	if info := eng.LoadInfo(); info.Mode != "mmap" {
		eng.Close()
		return nil, 0, fmt.Errorf("engine was loaded in mode %q (format v%d), want mmap", info.Mode, info.Format)
	}
	return eng, took, nil
}

// warmQueries is how many searches each client runs during warm-up, after
// the first one: enough to size the pooled search states and fault in the
// mapping's hot pages.
const warmQueries = 8

// warmUp runs the first query alone (it computes the α=0.1 activation
// levels and takes the first page faults), then warmQueries more on each of
// `clients` goroutines, so the engine's state pool holds one warm state per
// concurrent searcher.
func warmUp(eng *wikisearch.Engine, pool []string, clients int) (first, rest time.Duration, err error) {
	if len(pool) == 0 {
		return 0, 0, errors.New("empty query population")
	}
	ctx := context.Background()
	t := time.Now()
	if _, err := eng.Search(ctx, wikisearch.Query{Text: pool[0]}); err != nil {
		return 0, 0, fmt.Errorf("warm-up %q: %w", pool[0], err)
	}
	first = time.Since(t)

	t = time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warmQueries; i++ {
				q := pool[(1+c*warmQueries+i)%len(pool)]
				if _, err := eng.Search(ctx, wikisearch.Query{Text: q}); err != nil {
					errs[c] = fmt.Errorf("warm-up %q: %w", q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first, time.Since(t), errors.Join(errs...)
}

// liveServer is the real internal/server stack behind net/http on a
// loopback listener in this process.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string // "http://127.0.0.1:port"
	done chan error
}

// quietLog keeps the server's access log formatting (production pays for
// it) but drops the bytes.
func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

// serve starts a server over eng. A non-nil mut enables POST /v1/mutate the
// way `wikiserve -mutate` does.
func serve(eng *wikisearch.Engine, cfg server.Config, mut *wikisearch.MutatorOptions) (*liveServer, error) {
	cfg.Logger = quietLog()
	srv := server.NewWithConfig(eng, cfg)
	if mut != nil {
		if err := srv.EnableMutation(*mut); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the listener down, waits for Serve to return and releases the
// mutator.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, l.srv.Close())
}
