// Command wikisearch runs keyword queries against a knowledge-base dump,
// either one-shot (-q) or as an interactive prompt.
//
// Usage:
//
//	wikisearch -kb wiki2017-sim.wskb -q "sql rdf knowledge base"
//	wikisearch -kb wiki2017-sim.wskb -alpha 0.4 -k 10 -variant gpu
//	wikisearch -kb wiki2017-sim.wskb            # interactive
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wikisearch"
	"wikisearch/paper"
)

func main() {
	var (
		kbPath  = flag.String("kb", "", "knowledge-base dump produced by wikigen (required)")
		query   = flag.String("q", "", "one-shot query (interactive prompt when empty)")
		topk    = flag.Int("k", 20, "top-k answers")
		alpha   = flag.Float64("alpha", 0.1, "activation preference α")
		threads = flag.Int("threads", 0, "Tnum (0 = GOMAXPROCS)")
		variant = flag.String("variant", "cpu", "cpu | cpu-d | gpu | seq | banks1 | banks2")
		verbose = flag.Bool("v", false, "print full answer graphs")
		dotOut  = flag.String("dot", "", "write the top answer as Graphviz DOT to this file")
	)
	flag.Parse()
	if *kbPath == "" {
		fmt.Fprintln(os.Stderr, "wikisearch: -kb is required (generate one with wikigen)")
		os.Exit(2)
	}

	t0 := time.Now()
	eng, err := wikisearch.LoadEngine(*kbPath, wikisearch.EngineOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s: %d nodes, %d edges, A=%.2f (%v)\n",
		eng.Name(), eng.Graph().NumNodes(), eng.Graph().NumEdges(),
		eng.AvgDistance(), time.Since(t0).Round(time.Millisecond))

	run := func(q string) {
		ctx := context.Background()
		query := wikisearch.Query{Text: q, TopK: *topk, Alpha: *alpha, Threads: *threads}
		var (
			res *wikisearch.Result
			err error
		)
		switch *variant {
		case "banks1", "banks2":
			bres, err := paper.BANKS(eng, query, *variant == "banks2", 500000)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Printf("%d trees in %v (%d nodes visited)\n", len(bres.Trees), bres.Elapsed.Round(time.Microsecond), bres.Visited)
			for i, t := range bres.Trees {
				fmt.Printf("%2d. [%.3f] root: %s (%d nodes)\n", i+1, t.Score, t.RootLabel, len(t.Nodes))
			}
			return
		case "cpu":
			res, err = eng.Search(ctx, query)
		case "seq":
			query.Variant = wikisearch.Sequential
			res, err = eng.Search(ctx, query)
		case "cpu-d":
			res, err = paper.CPUParD(ctx, eng, query)
		case "gpu":
			res, err = paper.GPUPar(ctx, eng, query)
		default:
			fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Printf("terms=%v  d=%d  candidates=%d  total=%v\n",
			res.Terms, res.Depth, res.Candidates, res.Total.Round(time.Microsecond))
		for name, d := range res.Phases {
			fmt.Printf("  %-26s %v\n", name+":", d.Round(time.Microsecond))
		}
		for i := range res.Answers {
			a := &res.Answers[i]
			fmt.Printf("%2d. [%.4f] %s (depth %d, %d nodes, %d edges, %d pruned)\n",
				i+1, a.Score, a.CentralLabel, a.Depth, len(a.Nodes), len(a.Edges), a.PrunedNodes)
			if *verbose {
				printAnswer(a)
			}
		}
		if *dotOut != "" && len(res.Answers) > 0 {
			f, err := os.Create(*dotOut) // best-effort visualization output, not engine state: no fsync
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			if err := res.Answers[0].WriteDOT(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Printf("wrote %s (render with: dot -Tsvg %s -o answer.svg)\n", *dotOut, *dotOut)
		}
	}

	if *query != "" {
		run(*query)
		return
	}
	fmt.Println("interactive mode — enter keyword queries, empty line to quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			break
		}
		run(line)
	}
}

func printAnswer(a *wikisearch.Answer) {
	for _, n := range a.Nodes {
		mark := "   "
		if n.IsCentral {
			mark = " * "
		}
		kw := ""
		if len(n.Keywords) > 0 {
			kw = " {" + strings.Join(n.Keywords, ",") + "}"
		}
		fmt.Printf("    %s%-40s w=%.3f%s\n", mark, n.Label, n.Weight, kw)
	}
	for _, e := range a.Edges {
		dir := "->"
		if !e.Forward {
			dir = "<-"
		}
		fmt.Printf("      %d %s %d  (%s) via %v\n", e.From, dir, e.To, e.Rel, e.Keywords)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wikisearch:", err)
	os.Exit(1)
}
