package bench

import (
	"fmt"

	"wikisearch"
	"wikisearch/internal/gen"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
)

// ScalingPoint is one measurement of the graph-size sweep.
type ScalingPoint struct {
	Nodes   int
	Edges   int
	TotalMs float64
	Answers float64
}

// Scaling measures CPU-Par total time across a family of growing graphs
// (the paper's implicit wiki2017 → wiki2018 axis, extended): the Central
// Graph search should grow roughly linearly with graph size because the
// bottom-up stage is bounded by d levels of frontier work, which is the
// property behind the paper's "real-time search on graphs of this size"
// claim (§I).
func Scaling(cfg Config, sizes []int) (Table, []ScalingPoint, error) {
	cfg = cfg.Defaults()
	if len(sizes) == 0 {
		sizes = []int{15000, 30000, 60000, 120000}
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	t := Table{
		ID:     "scaling",
		Title:  "CPU-Par total time vs graph size (Knum=" + fmt.Sprint(cfg.Knum) + ")",
		Header: []string{"nodes", "edges", "avg total ms", "avg answers"},
	}
	var points []ScalingPoint
	for _, n := range sizes {
		kb := gen.Generate(gen.Config{
			Name:      fmt.Sprintf("scale-%d", n),
			Seed:      cfg.Seed + int64(n),
			Nodes:     n,
			AvgDegree: 8,
			VocabSize: n / 8,
		})
		eng, err := wikisearch.NewEngine(kb.Graph, wikisearch.EngineOptions{
			DistanceSamplePairs: 500, Seed: cfg.Seed,
		})
		if err != nil {
			return t, nil, err
		}
		env := &Env{Cfg: cfg, KB: kb, Eng: eng, Ix: text.BuildIndex(kb.Graph, pool)}
		queries := env.Workload(cfg.Knum, cfg.QueriesPerSetting)
		r, err := env.measure(VCPU, queries, cfg.TopK, cfg.Alpha, cfg.Threads)
		if err != nil {
			return t, nil, err
		}
		p := ScalingPoint{
			Nodes:   kb.Graph.NumNodes(),
			Edges:   kb.Graph.NumEdges(),
			TotalMs: r.TotalMs,
			Answers: r.Answers,
		}
		points = append(points, p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Nodes), fmt.Sprint(p.Edges),
			fmt.Sprintf("%.3f", p.TotalMs), fmt.Sprintf("%.1f", p.Answers),
		})
	}
	return t, points, nil
}
