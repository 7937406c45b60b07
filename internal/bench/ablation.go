package bench

import (
	"context"
	"fmt"
	"time"

	"wikisearch"
)

// AblationStats aggregates answer-quality signals for one configuration.
type AblationStats struct {
	Config string
	// AvgNodes is the mean answer-graph size.
	AvgNodes float64
	// AvgWeight is the mean degree-of-summary weight over answer nodes —
	// higher means more hub nodes inside answers (less informative).
	AvgWeight float64
	// AvgPruned is the mean number of nodes the level-cover removed.
	AvgPruned float64
	// AvgDepth is the mean answer depth; TotalMs the mean search time.
	AvgDepth float64
	TotalMs  float64
	Answers  float64
}

// AblationLevelCover quantifies the level-cover strategy (§V-C): the same
// workload with and without pruning. Without it answers carry every
// extracted hitting-path node, so they are larger and heavier.
func (e *Env) AblationLevelCover(knum int) (Table, []AblationStats, error) {
	queries := e.Workload(knum, e.Cfg.QueriesPerSetting)
	stats := make([]AblationStats, 0, 2)
	for _, disable := range []bool{false, true} {
		s, err := e.ablationRun(queries, func(q *wikisearch.Query) {
			q.DisableLevelCover = disable
		})
		if err != nil {
			return Table{}, nil, err
		}
		if disable {
			s.Config = "without level-cover"
		} else {
			s.Config = "with level-cover"
		}
		stats = append(stats, s)
	}
	return ablationTable("ablation/level-cover",
		"Level-cover pruning ablation on "+e.KB.Name, stats), stats, nil
}

// AblationActivation quantifies the minimum-activation-level mechanism
// (§IV): disabling it degrades the search to plain multi-BFS, which the
// paper warns produces arbitrary answers — visible here as much heavier
// answer nodes (summary hubs flood in).
func (e *Env) AblationActivation(knum int) (Table, []AblationStats, error) {
	queries := e.Workload(knum, e.Cfg.QueriesPerSetting)
	stats := make([]AblationStats, 0, 2)
	for _, disable := range []bool{false, true} {
		s, err := e.ablationRun(queries, func(q *wikisearch.Query) {
			q.DisableActivation = disable
		})
		if err != nil {
			return Table{}, nil, err
		}
		if disable {
			s.Config = "without activation levels"
		} else {
			s.Config = "with activation levels"
		}
		stats = append(stats, s)
	}
	return ablationTable("ablation/activation",
		"Minimum-activation-level ablation on "+e.KB.Name, stats), stats, nil
}

func (e *Env) ablationRun(queries []string, mutate func(*wikisearch.Query)) (AblationStats, error) {
	var s AblationStats
	var answers, nodes int
	var weightSum float64
	for _, qtext := range queries {
		q := wikisearch.Query{Text: qtext, TopK: e.Cfg.TopK, Alpha: e.Cfg.Alpha, Threads: e.Cfg.Threads}
		mutate(&q)
		res, err := e.Eng.Search(context.Background(), q)
		if err != nil {
			return s, err
		}
		s.TotalMs += float64(res.Total) / float64(time.Millisecond)
		for i := range res.Answers {
			a := &res.Answers[i]
			answers++
			nodes += len(a.Nodes)
			s.AvgPruned += float64(a.PrunedNodes)
			s.AvgDepth += float64(a.Depth)
			for _, n := range a.Nodes {
				weightSum += n.Weight
			}
		}
	}
	nq := float64(len(queries))
	s.TotalMs /= nq
	s.Answers = float64(answers) / nq
	if answers > 0 {
		s.AvgNodes = float64(nodes) / float64(answers)
		s.AvgPruned /= float64(answers)
		s.AvgDepth /= float64(answers)
	}
	if nodes > 0 {
		s.AvgWeight = weightSum / float64(nodes)
	}
	return s, nil
}

func ablationTable(id, title string, stats []AblationStats) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"config", "avg nodes/answer", "avg node weight", "avg pruned", "avg depth", "total ms"},
	}
	for _, s := range stats {
		t.Rows = append(t.Rows, []string{
			s.Config,
			fmt.Sprintf("%.2f", s.AvgNodes),
			fmt.Sprintf("%.4f", s.AvgWeight),
			fmt.Sprintf("%.2f", s.AvgPruned),
			fmt.Sprintf("%.2f", s.AvgDepth),
			fmt.Sprintf("%.3f", s.TotalMs),
		})
	}
	return t
}

// AblationBaselines contrasts BANKS-I (purely backward, distance-ordered)
// with BANKS-II (bidirectional, activation-ordered) — the progression §II
// describes — plus CPU-Par as the reference.
func (e *Env) AblationBaselines(knum int) (Table, error) {
	queries := e.Workload(knum, e.Cfg.QueriesPerSetting)
	t := Table{
		ID:     "ablation/baselines",
		Title:  "Baseline comparison on " + e.KB.Name,
		Header: []string{"system", "avg total ms", "avg answers", "avg visited"},
	}
	type row struct {
		name    string
		ms      float64
		answers float64
		visited float64
	}
	rows := []row{}
	for _, bidi := range []bool{false, true} {
		r := row{name: "BANKS-I"}
		if bidi {
			r.name = "BANKS-II"
		}
		for _, q := range queries {
			ur, err := e.Eng.Search(context.Background(), wikisearch.Query{
				Text: q, TopK: e.Cfg.TopK, Bidirectional: bidi, MaxVisits: e.Cfg.BanksMaxVisits, Variant: wikisearch.BANKS,
			})
			if err != nil {
				return t, err
			}
			res := ur.Banks
			r.ms += float64(res.Elapsed) / float64(time.Millisecond)
			r.answers += float64(len(res.Trees))
			r.visited += float64(res.Visited)
		}
		n := float64(len(queries))
		r.ms, r.answers, r.visited = r.ms/n, r.answers/n, r.visited/n
		rows = append(rows, r)
	}
	// DPBF: the exact Group Steiner Tree DP, state-capped like BANKS is
	// visit-capped (its state space is n·2^l).
	dp := row{name: "DPBF-Exact"}
	for _, q := range queries {
		ur, err := e.Eng.Search(context.Background(), wikisearch.Query{
			Text: q, TopK: e.Cfg.TopK, MaxStates: 400000, Variant: wikisearch.ExactGST,
		})
		if err != nil {
			return t, err
		}
		res := ur.GST
		dp.ms += float64(res.Elapsed) / float64(time.Millisecond)
		dp.answers += float64(len(res.Trees))
		dp.visited += float64(res.Popped)
	}
	nq := float64(len(queries))
	dp.ms, dp.answers, dp.visited = dp.ms/nq, dp.answers/nq, dp.visited/nq
	rows = append(rows, dp)

	cp, err := e.measure(VCPU, queries, e.Cfg.TopK, e.Cfg.Alpha, e.Cfg.Threads)
	if err != nil {
		return t, err
	}
	rows = append(rows, row{name: VCPU, ms: cp.TotalMs, answers: cp.Answers})
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%.3f", r.ms),
			fmt.Sprintf("%.1f", r.answers),
			fmt.Sprintf("%.0f", r.visited),
		})
	}
	return t, nil
}
