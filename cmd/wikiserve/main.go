// Command wikiserve exposes the engine as an HTTP JSON service — the
// reproduction of the paper's online WikiSearch demo, hardened with
// request deadlines, concurrency limiting, result caching and a
// Prometheus metrics endpoint. See internal/server for the endpoints.
//
// Usage:
//
//	wikiserve -kb wiki2017-sim.wskb -addr :8080 \
//	    -timeout 5s -max-inflight 64 -cache 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wikisearch"
	"wikisearch/internal/server"
)

func main() {
	var (
		kbPath      = flag.String("kb", "", "knowledge-base dump produced by wikigen (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request search deadline (<=0 disables)")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrent searches before fast-fail 503 (<=0 disables)")
		cacheSize   = flag.Int("cache", 256, "query-result cache entries (<=0 disables)")
		slowQuery   = flag.Duration("slow-query", 500*time.Millisecond,
			"searches slower than this get a structured slow-query log line and land in the /v1/debug/traces slow ring (<=0 disables)")
		mutate = flag.Bool("mutate", false,
			"accept live graph mutations via POST /v1/mutate (single-writer, epoch-snapshotted)")
		compactAfter = flag.Int("compact-after", 4096,
			"delta size in mutation ops at which the background compactor folds the delta into a fresh base snapshot (<=0 disables auto-compaction; requires -mutate)")
		debugAddr = flag.String("debug-addr", "",
			"private listen address for net/http/pprof profiling endpoints (empty disables)")
		grace = flag.Duration("grace", 10*time.Second, "graceful shutdown drain window")
	)
	flag.Parse()
	if *kbPath == "" {
		fmt.Fprintln(os.Stderr, "wikiserve: -kb is required")
		os.Exit(2)
	}
	if !*mutate {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "compact-after" {
				fmt.Fprintln(os.Stderr, "wikiserve: -compact-after requires -mutate")
				os.Exit(2)
			}
		})
	}
	t0 := time.Now()
	eng, err := wikisearch.LoadEngine(*kbPath, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	info := eng.LoadInfo()
	log.Printf("wikiserve: loaded %s in %v (format=v%d mode=%s mapped=%.1fMB file=%.1fMB)",
		*kbPath, time.Since(t0).Round(time.Millisecond), info.Format, info.Mode,
		float64(info.MappedBytes)/(1<<20), float64(info.FileBytes)/(1<<20))
	cfg := server.Config{
		Timeout:     *timeout,
		MaxInFlight: *maxInFlight,
		CacheSize:   *cacheSize,
		SlowQuery:   *slowQuery,
		Logger:      log.Default(),
	}
	// The flag convention is <=0 disables; Config uses negative for that
	// and 0 for defaults, so map explicitly.
	if *timeout <= 0 {
		cfg.Timeout = -1
	}
	if *maxInFlight <= 0 {
		cfg.MaxInFlight = -1
	}
	if *cacheSize <= 0 {
		cfg.CacheSize = -1
	}
	if *slowQuery <= 0 {
		cfg.SlowQuery = -1
	}
	if *debugAddr != "" {
		// pprof stays off the public mux: it leaks internals and can stall
		// the process, so it binds its own (typically loopback) address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { //wikisearch:daemon debug listener intentionally serves for the process lifetime
			log.Printf("wikiserve: pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Printf("wikiserve: debug listener: %v", err)
			}
		}()
	}
	log.Printf("wikiserve: %s (%d nodes, %d edges) on %s (timeout=%v max-inflight=%d cache=%d)",
		eng.Name(), eng.Graph().NumNodes(), eng.Graph().NumEdges(), *addr,
		*timeout, *maxInFlight, *cacheSize)
	h := server.NewWithConfig(eng, cfg)
	if *mutate {
		after := *compactAfter
		if after <= 0 {
			after = -1
		}
		if err := h.EnableMutation(wikisearch.MutatorOptions{CompactAfterOps: after}); err != nil {
			log.Fatal(err)
		}
		defer h.Close()
		log.Printf("wikiserve: live mutations enabled on POST /v1/mutate (compact-after=%d)", *compactAfter)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("wikiserve: shutting down, draining for up to %v", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("wikiserve: shutdown: %v", err)
			os.Exit(1)
		}
		log.Print("wikiserve: bye")
	}
}
