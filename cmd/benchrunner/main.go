// Command benchrunner regenerates the paper's tables and figures on the
// synthetic datasets. Each experiment prints the same rows/series the paper
// reports (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp exp1 -dataset wiki2018-sim -queries 50
//	benchrunner -exp table2,fig3,fig11
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"wikisearch/internal/bench"
	"wikisearch/internal/blinks"
)

// experiments are the valid -exp names besides "all".
var experiments = []string{
	"table2", "fig3", "exp1", "exp2", "exp3", "exp4", "table4", "table5",
	"fig11", "fig12", "ablation", "blinks", "scaling",
}

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ",")+" or 'all' (blinks and scaling are opt-in)")
		dataset = flag.String("dataset", "wiki2017-sim", "dataset for single-dataset experiments (exp1..exp4)")
		queries = flag.Int("queries", 10, "queries averaged per setting (paper: 50)")
		threads = flag.Int("threads", 8, "Tnum for efficiency experiments (paper default: 30)")
		visits  = flag.Int("banks-visits", 100000, "BANKS-II visit cap per query (analogue of the paper's 500s timeout)")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experiments, e) {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q; valid: %s, all\n", e, strings.Join(experiments, ", "))
			os.Exit(2)
		}
		want[e] = true
	}
	all := want["all"]

	cfg := bench.Config{
		QueriesPerSetting: *queries,
		Threads:           *threads,
		BanksMaxVisits:    *visits,
		Seed:              *seed,
	}

	// Single-dataset env for exp1..exp4 and the per-dataset figures.
	need1 := all || want["exp1"] || want["exp2"] || want["exp3"] || want["exp4"] || want["fig3"]
	needBoth := all || want["table2"] || want["table4"] || want["table5"] || want["fig11"] || want["fig12"]

	var envs map[string]*bench.Env = map[string]*bench.Env{}
	getEnv := func(name string) *bench.Env {
		if e, ok := envs[name]; ok {
			return e
		}
		fmt.Fprintf(os.Stderr, "preparing %s...\n", name)
		t0 := time.Now()
		c := cfg
		c.Preset = name
		e, err := bench.NewEnv(c)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  %s ready in %v (%d nodes, %d edges, A=%.2f)\n",
			name, time.Since(t0).Round(time.Millisecond),
			e.KB.Graph.NumNodes(), e.KB.Graph.NumEdges(), e.Eng.AvgDistance())
		envs[name] = e
		return e
	}

	var env *bench.Env
	if need1 {
		env = getEnv(*dataset)
	}
	var both []*bench.Env
	if needBoth {
		both = []*bench.Env{getEnv("wiki2017-sim"), getEnv("wiki2018-sim")}
	}

	show := func(t bench.Table) { fmt.Println(t.String()) }

	if all || want["table2"] {
		t, _ := bench.Table2(both)
		show(t)
	}
	if all || want["fig3"] {
		t, _ := env.Fig3(nil)
		show(t)
	}
	if all || want["exp1"] {
		tables, _, err := env.Exp1VaryKnum(nil)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			show(t)
		}
	}
	if all || want["exp2"] {
		t, _, err := env.Exp2VaryTopk(nil)
		if err != nil {
			fatal(err)
		}
		show(t)
	}
	if all || want["exp3"] {
		t, _, err := env.Exp3VaryAlpha(nil)
		if err != nil {
			fatal(err)
		}
		show(t)
	}
	if all || want["exp4"] {
		tables, _, err := env.Exp4VaryThreads(nil)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			show(t)
		}
	}
	if all || want["table4"] {
		t, _ := bench.Table4(both, 8)
		show(t)
	}
	if all || want["table5"] {
		show(bench.Table5(both))
	}
	if all || want["fig11"] {
		tables, _, err := both[0].Effectiveness(nil, nil)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			show(t)
		}
	}
	if all || want["ablation"] {
		if env == nil {
			env = getEnv(*dataset)
		}
		t, _, err := env.AblationLevelCover(env.Cfg.Knum)
		if err != nil {
			fatal(err)
		}
		show(t)
		t, _, err = env.AblationActivation(env.Cfg.Knum)
		if err != nil {
			fatal(err)
		}
		show(t)
		bt, err := env.AblationBaselines(env.Cfg.Knum)
		if err != nil {
			fatal(err)
		}
		show(bt)
		// §VI-B's repetition anecdote, quantified on the rare-keyword query.
		rt := bench.Table{
			ID:     "ablation/repetition",
			Title:  "Top-20 answer repetition on " + env.KB.Name + " (Q11, §VI-B)",
			Header: []string{"system", "mean pairwise Jaccard", "max node recurrence", "answers"},
		}
		reps, err := env.Repetition("Q11", 20)
		if err != nil {
			fatal(err)
		}
		for _, r := range reps {
			rt.Rows = append(rt.Rows, []string{
				r.System,
				fmt.Sprintf("%.3f", r.MeanJaccard),
				fmt.Sprintf("%d", r.MaxNodeRecurrence),
				fmt.Sprintf("%d", r.Answers),
			})
		}
		show(rt)
	}
	if want["blinks"] { // opt-in feasibility study (not part of 'all')
		if env == nil {
			env = getEnv(*dataset)
		}
		rep, err := blinks.Feasibility(env.KB.Graph, env.Ix, []int{50, 100, 200}, 0)
		if err != nil {
			fatal(err)
		}
		t := bench.Table{
			ID:     "blinks",
			Title:  "BLINKS precomputation feasibility on " + env.KB.Name + " (§II's exclusion, measured)",
			Header: []string{"indexed terms", "build time", "index bytes"},
		}
		for _, p := range rep.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p.Terms),
				fmt.Sprintf("%.2fs", p.BuildSeconds),
				fmt.Sprintf("%.1fMB", float64(p.Bytes)/(1<<20)),
			})
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (full vocab, projected)", rep.FullVocabTerms),
			fmt.Sprintf("%.0fs", rep.ProjectedSeconds),
			fmt.Sprintf("%.1fGB", float64(rep.ProjectedBytes)/(1<<30)),
		})
		show(t)
	}
	if want["scaling"] { // opt-in: generates several graphs (not part of 'all')
		t, _, err := bench.Scaling(cfg, nil)
		if err != nil {
			fatal(err)
		}
		show(t)
	}
	if all || want["fig12"] {
		tables, _, err := both[1].Effectiveness(nil, nil)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			show(t)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
