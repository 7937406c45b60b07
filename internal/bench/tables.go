package bench

import (
	"fmt"
	"math/rand"

	"wikisearch/internal/graph"
	"wikisearch/internal/parallel"
)

// DatasetStats is a Table II row.
type DatasetStats struct {
	Name      string
	Nodes     int
	Edges     int
	AvgDist   float64
	Deviation float64
}

// Table2 reproduces Table II: dataset sizes and the sampled average
// shortest distance with its deviation.
func Table2(envs []*Env) (Table, []DatasetStats) {
	t := Table{
		ID:     "table2",
		Title:  "Dataset statistics (Table II)",
		Header: []string{"dataset", "# nodes", "# edges", "A", "Deviation"},
	}
	var stats []DatasetStats
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, e := range envs {
		s := graph.SampleAverageDistance(e.KB.Graph, e.Cfg.SamplePairs,
			rand.New(rand.NewSource(e.Cfg.Seed)), pool)
		row := DatasetStats{
			Name:      e.KB.Name,
			Nodes:     e.KB.Graph.NumNodes(),
			Edges:     e.KB.Graph.NumEdges(),
			AvgDist:   s.Mean,
			Deviation: s.Deviation,
		}
		stats = append(stats, row)
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.2f", row.AvgDist),
			fmt.Sprintf("%.2f", row.Deviation),
		})
	}
	return t, stats
}

// Fig3 reproduces Fig. 3: the distribution of nodes over minimum activation
// levels for several α values (buckets 0,1,2,3,≥4).
func (e *Env) Fig3(alphas []float64) (Table, map[string][]float64) {
	if len(alphas) == 0 {
		alphas = []float64{0.05, 0.1, 0.4}
	}
	const buckets = 5
	t := Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Node distribution over minimum activation levels on %s (Fig. 3)", e.KB.Name),
		Header: []string{"alpha", "0", "1", "2", "3", ">=4"},
	}
	raw := map[string][]float64{}
	n := float64(e.KB.Graph.NumNodes())
	for _, a := range alphas {
		dist := e.Eng.ActivationDistribution(a, buckets)
		key := fmt.Sprintf("alpha-%.2f", a)
		row := []string{key}
		var fracs []float64
		for _, c := range dist {
			f := float64(c) / n
			fracs = append(fracs, f)
			row = append(row, fmt.Sprintf("%.1f%%", 100*f))
		}
		raw[key] = fracs
		t.Rows = append(t.Rows, row)
	}
	return t, raw
}

// StorageCost is a Table IV row.
type StorageCost struct {
	Name string
	// PreStorage is the resident dataset: CSR arrays + node weights.
	PreStorage int64
	// MaxRunning adds the per-query structures at Knum=8, Topk=50:
	// FIdentifier, CIdentifier and the node-keyword matrix.
	MaxRunning int64
}

// Table4 reproduces Table IV: pre-storage and maximum running storage of
// the GPU implementation (Knum=8, Topk=50).
func Table4(envs []*Env, knum int) (Table, []StorageCost) {
	if knum <= 0 {
		knum = 8
	}
	t := Table{
		ID:     "table4",
		Title:  fmt.Sprintf("Running storage cost on the (simulated) GPU (Knum=%d, Topk=50) (Table IV)", knum),
		Header: []string{"dataset", "pre-storage", "max. running storage"},
	}
	var costs []StorageCost
	for _, e := range envs {
		g := e.KB.Graph
		n, m := int64(g.NumNodes()), int64(g.NumEdges())
		// CSR: two offset arrays of (n+1) int64, two endpoint and two
		// relation arrays of m int32; weights one float64 per node.
		pre := 2*8*(n+1) + 4*4*m + 8*n
		// Running: FIdentifier + CIdentifier bitsets and the n×q matrix.
		running := pre + 2*(n/8+8) + n*int64(knum)
		costs = append(costs, StorageCost{Name: e.KB.Name, PreStorage: pre, MaxRunning: running})
		t.Rows = append(t.Rows, []string{e.KB.Name, fmtBytes(pre), fmtBytes(running)})
	}
	return t, costs
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// Table5 reproduces Table V: the effectiveness queries with their average
// keyword frequency on each dataset.
func Table5(envs []*Env) Table {
	t := Table{
		ID:     "table5",
		Title:  "Effectiveness queries and average keyword frequencies (Table V)",
		Header: []string{"query", "keywords"},
	}
	for _, e := range envs {
		t.Header = append(t.Header, "kwf("+e.KB.Name+")")
	}
	if len(envs) == 0 {
		return t
	}
	for qi, p := range envs[0].KB.Planted {
		row := []string{p.ID, joinWords(p.Keywords)}
		for _, e := range envs {
			pq := e.KB.Planted[qi]
			total := 0
			for _, kw := range pq.Keywords {
				total += e.Eng.KeywordFrequency(kw)
			}
			row = append(row, fmt.Sprintf("%d", total/len(pq.Keywords)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}
