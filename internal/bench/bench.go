// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's §VI on the synthetic datasets (see DESIGN.md's
// per-experiment index). Each experiment returns structured Tables that
// cmd/benchrunner prints and bench_test.go asserts shape properties on.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wikisearch"
	"wikisearch/internal/eval"
	"wikisearch/internal/gen"
	"wikisearch/internal/parallel"
	"wikisearch/internal/text"
)

// Config sizes a harness run. The defaults keep a full run laptop-friendly;
// raise QueriesPerSetting (the paper uses 50) and BanksMaxVisits for closer
// replication.
type Config struct {
	Preset            string // dataset preset; default "wiki2017-sim"
	QueriesPerSetting int    // efficiency queries averaged per setting (default 10)
	Seed              int64
	Threads           int // Tnum default (paper: 30)
	TopK              int
	Knum              int
	Alpha             float64
	// BanksMaxVisits caps BANKS queue pops per query — the analogue of the
	// paper's 500-second timeout (default 100,000; BANKS frequently hits
	// it, as it frequently hit the paper's limit).
	BanksMaxVisits int
	// SamplePairs for Table II distance estimation (paper: 10,000).
	SamplePairs int
}

// Defaults fills unset fields with Table III's values scaled to this
// harness.
func (c Config) Defaults() Config {
	if c.Preset == "" {
		c.Preset = "wiki2017-sim"
	}
	if c.QueriesPerSetting <= 0 {
		c.QueriesPerSetting = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.TopK <= 0 {
		c.TopK = 20
	}
	if c.Knum <= 0 {
		c.Knum = 6
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.1
	}
	if c.BanksMaxVisits <= 0 {
		c.BanksMaxVisits = 100000
	}
	if c.SamplePairs <= 0 {
		c.SamplePairs = 10000
	}
	return c
}

// Env is a prepared dataset + engine pair reused across experiments.
type Env struct {
	Cfg Config
	KB  *gen.KB
	Eng *wikisearch.Engine
	Ix  *text.Index
}

// NewEnv generates the dataset and prepares the engine.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.Defaults()
	var gcfg gen.Config
	switch cfg.Preset {
	case "wiki2017-sim":
		gcfg = gen.Wiki2017Sim()
	case "wiki2018-sim":
		gcfg = gen.Wiki2018Sim()
	case "tiny-sim":
		gcfg = gen.TinySim()
	default:
		return nil, fmt.Errorf("bench: unknown preset %q", cfg.Preset)
	}
	kb := gen.Generate(gcfg)
	eng, err := wikisearch.NewEngine(kb.Graph, wikisearch.EngineOptions{
		DistanceSamplePairs: 2000,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	eng.SetName(kb.Name)
	pool := parallel.NewPool(0)
	defer pool.Close()
	return &Env{Cfg: cfg, KB: kb, Eng: eng, Ix: text.BuildIndex(kb.Graph, pool)}, nil
}

// Workload returns the efficiency workload for a keyword count.
func (e *Env) Workload(knum, count int) []string {
	return gen.EfficiencyWorkload(e.KB, e.Ix, knum, count, e.Cfg.Seed).Queries
}

// Variant names, in the paper's presentation order.
const (
	VGPU   = "GPU-Par"
	VCPU   = "CPU-Par"
	VCPUD  = "CPU-Par-d"
	VBanks = "BANKS-II"
)

// PhaseNames are the Fig. 6/7 panels plus the total.
var PhaseNames = []string{
	"Initialization", "Enqueuing Frontiers", "Identifying Central Nodes",
	"Expansion", "Top-down Processing", "Total",
}

// Run is one averaged measurement: per-phase and total milliseconds for one
// variant at one x-axis setting.
type Run struct {
	Variant string
	X       string // the varied parameter's value, e.g. "6" for Knum=6
	Phases  map[string]float64
	TotalMs float64
	// Answers is the average answer count, a sanity signal.
	Answers float64
	// CapHits counts queries on which BANKS-II hit its visit cap — those
	// timings are lower bounds, like the paper's 500-second timeouts.
	CapHits int
}

// measure runs the variant over the workload and averages.
func (e *Env) measure(variant string, queries []string, topk int, alpha float64, threads int) (Run, error) {
	r := Run{Variant: variant, Phases: map[string]float64{}}
	if len(queries) == 0 {
		return r, fmt.Errorf("bench: empty workload")
	}
	for _, q := range queries {
		switch variant {
		case VBanks:
			ur, err := e.Eng.Search(context.Background(), wikisearch.Query{
				Text: q, TopK: topk, Bidirectional: true, MaxVisits: e.Cfg.BanksMaxVisits, Variant: wikisearch.BANKS,
			})
			if err != nil {
				return r, err
			}
			res := ur.Banks
			ms := float64(res.Elapsed) / float64(time.Millisecond)
			r.TotalMs += ms
			r.Answers += float64(len(res.Trees))
			if res.Visited >= e.Cfg.BanksMaxVisits {
				r.CapHits++
			}
		default:
			var v wikisearch.Variant
			switch variant {
			case VGPU:
				v = wikisearch.GPUPar
			case VCPU:
				v = wikisearch.CPUPar
			case VCPUD:
				v = wikisearch.CPUParD
			default:
				return r, fmt.Errorf("bench: unknown variant %q", variant)
			}
			res, err := e.Eng.Search(context.Background(), wikisearch.Query{
				Text: q, TopK: topk, Alpha: alpha, Threads: threads, Variant: v,
			})
			if err != nil {
				return r, err
			}
			for name, d := range res.Phases {
				r.Phases[name] += float64(d) / float64(time.Millisecond)
			}
			r.TotalMs += float64(res.Total) / float64(time.Millisecond)
			r.Answers += float64(len(res.Answers))
		}
	}
	n := float64(len(queries))
	for name := range r.Phases {
		r.Phases[name] /= n
	}
	r.TotalMs /= n
	r.Answers /= n
	return r, nil
}

// Oracles returns the effectiveness oracles for the planted queries.
func (e *Env) Oracles() []*eval.Oracle {
	out := make([]*eval.Oracle, 0, len(e.KB.Planted))
	for i := range e.KB.Planted {
		out = append(out, eval.NewOracle(&e.KB.Planted[i], e.Ix))
	}
	return out
}

// Table is a formatted experiment result.
type Table struct {
	ID     string // experiment id, e.g. "fig6/expansion"
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func ms(v float64) string { return fmt.Sprintf("%.3f", v) }
