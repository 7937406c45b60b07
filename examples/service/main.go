// End-to-end service scenario: generate a knowledge base, persist it,
// reload it (the wikigen → wikiserve pipeline, programmatically), serve it
// over HTTP on a local port, and query it with a plain HTTP client — the
// full life cycle of the paper's online WikiSearch demo.
//
// Run with: go run ./examples/service
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"wikisearch"
	"wikisearch/dataset"
	"wikisearch/internal/server"
)

func main() {
	// 1. Generate and persist a dataset.
	ds, err := dataset.Generate(dataset.Config{Preset: "tiny-sim"})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := wikisearch.NewEngine(ds.Graph, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eng.SetName(ds.Name)
	dir, err := os.MkdirTemp("", "wikisearch-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dump := filepath.Join(dir, "kb.wskb")
	if err := eng.Save(dump); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(dump)
	fmt.Printf("saved %s: %.1f MB\n", dump, float64(st.Size())/(1<<20))

	// 2. Reload — what wikiserve does at startup.
	eng2, err := wikisearch.LoadEngine(dump, wikisearch.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded %s: %d nodes, %d edges, A=%.2f\n",
		eng2.Name(), eng2.Graph().NumNodes(), eng2.Graph().NumEdges(), eng2.AvgDistance())

	// 3. Serve on an ephemeral local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(eng2), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) // shut down by the deferred srv.Close below
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// 4. Query over HTTP like any client would.
	for _, q := range []string{"statistical relational learning", "wikidata freebase sparql"} {
		var payload server.V1SearchResponse
		getJSON(base+"/v1/search?k=3&q="+url.QueryEscape(q), &payload)
		if payload.Error != nil {
			log.Fatalf("search %q: %s: %s", q, payload.Error.Code, payload.Error.Message)
		}
		st := payload.Stats
		fmt.Printf("GET /v1/search?q=%q → terms %v, d=%d, %.2f ms\n", q, st.Terms, st.Depth, st.TotalMs)
		for i, a := range payload.Results {
			fmt.Printf("  %d. [%.4f] %s (%d nodes)\n", i+1, a.Score, a.Central, len(a.Nodes))
		}
		fmt.Println()
	}

	// 5. Stats endpoint.
	var stats server.V1StatsResponse
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("GET /v1/stats → %+v\n", *stats.Stats)
}

// getJSON fetches u and decodes its JSON body into v; error statuses carry
// the /v1 envelope's error block, so they decode too.
func getJSON(u string, v any) {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
