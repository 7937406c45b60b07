package bench

import (
	"context"
	"fmt"
	"strings"

	"wikisearch"
	"wikisearch/internal/gen"
	"wikisearch/internal/graph"
	"wikisearch/paper"
)

// RepetitionStats quantifies §VI-B's repetition observation ("the node …
// appears in 16 different answers of top-20, contributing the keyword
// 'gradient' 16 times"): how much the top-k answers of each system overlap
// each other, and how often the single most repeated node recurs.
type RepetitionStats struct {
	System string
	// MeanJaccard is the average pairwise Jaccard overlap of top-k answer
	// node sets (1 = identical answers, 0 = disjoint).
	MeanJaccard float64
	// MaxNodeRecurrence is the count of the single most repeated node
	// across the top-k answers.
	MaxNodeRecurrence int
	Answers           int
}

// Repetition measures answer-set overlap for one planted query at top-k,
// for BANKS-II and for Central Graphs at the default α.
func (e *Env) Repetition(queryID string, k int) ([]RepetitionStats, error) {
	var p *gen.PlantedQuery
	for i := range e.KB.Planted {
		if e.KB.Planted[i].ID == queryID {
			p = &e.KB.Planted[i]
		}
	}
	if p == nil {
		return nil, fmt.Errorf("bench: unknown query %q", queryID)
	}
	queryText := strings.Join(p.Keywords, " ")

	var out []RepetitionStats
	bres, err := paper.BANKS(e.Eng, wikisearch.Query{Text: queryText, TopK: k}, true, e.Cfg.BanksMaxVisits)
	if err != nil {
		return nil, err
	}
	bsets := make([][]graph.NodeID, 0, len(bres.Trees))
	for _, t := range bres.Trees {
		bsets = append(bsets, t.Nodes)
	}
	out = append(out, repetitionOf(VBanks, bsets))

	res, err := e.Eng.Search(context.Background(), wikisearch.Query{Text: queryText, TopK: k, Alpha: e.Cfg.Alpha, Threads: e.Cfg.Threads})
	if err != nil {
		return nil, err
	}
	csets := make([][]graph.NodeID, 0, len(res.Answers))
	for i := range res.Answers {
		csets = append(csets, res.Answers[i].NodeIDs())
	}
	out = append(out, repetitionOf("Central Graphs", csets))
	return out, nil
}

func repetitionOf(system string, sets [][]graph.NodeID) RepetitionStats {
	st := RepetitionStats{System: system, Answers: len(sets)}
	counts := map[graph.NodeID]int{}
	for _, s := range sets {
		for _, v := range s {
			counts[v]++
		}
	}
	for _, c := range counts {
		if c > st.MaxNodeRecurrence {
			st.MaxNodeRecurrence = c
		}
	}
	pairs, sum := 0, 0.0
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sum += jaccard(sets[i], sets[j])
			pairs++
		}
	}
	if pairs > 0 {
		st.MeanJaccard = sum / float64(pairs)
	}
	return st
}

func jaccard(a, b []graph.NodeID) float64 {
	set := map[graph.NodeID]bool{}
	for _, v := range a {
		set[v] = true
	}
	inter := 0
	union := len(set)
	seen := map[graph.NodeID]bool{}
	for _, v := range b {
		if seen[v] {
			continue
		}
		seen[v] = true
		if set[v] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// PrecisionCell is one bar of Fig. 11/12: the top-k precision of one
// system on one query.
type PrecisionCell struct {
	Query     string
	System    string // "BANKS-II" or "alpha-0.05" etc.
	K         int
	Precision float64
}

// Effectiveness reproduces Fig. 11 (wiki2017) / Fig. 12 (wiki2018): top-k
// precision of BANKS-II versus WikiSearch at several α settings on the
// planted Table V queries, judged by the ground-truth oracle. One table is
// returned per k.
func (e *Env) Effectiveness(alphas []float64, ks []int) ([]Table, []PrecisionCell, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.05, 0.1, 0.4}
	}
	if len(ks) == 0 {
		ks = []int{5, 10, 20}
	}
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	oracles := e.Oracles()
	var cells []PrecisionCell

	for qi := range e.KB.Planted {
		p := &e.KB.Planted[qi]
		queryText := strings.Join(p.Keywords, " ")
		oracle := oracles[qi]

		// BANKS-II answers once at the largest k.
		bres, err := paper.BANKS(e.Eng, wikisearch.Query{Text: queryText, TopK: maxK}, true, e.Cfg.BanksMaxVisits)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: BANKS on %s: %w", p.ID, err)
		}
		bsets := make([][]graph.NodeID, 0, len(bres.Trees))
		for _, tr := range bres.Trees {
			bsets = append(bsets, tr.Nodes)
		}
		for _, k := range ks {
			cells = append(cells, PrecisionCell{
				Query: p.ID, System: VBanks, K: k,
				Precision: oracle.PrecisionAtK(bsets, k),
			})
		}

		for _, a := range alphas {
			res, err := e.Eng.Search(context.Background(), wikisearch.Query{
				Text: queryText, TopK: maxK, Alpha: a, Threads: e.Cfg.Threads,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s α=%.2f: %w", p.ID, a, err)
			}
			sets := make([][]graph.NodeID, 0, len(res.Answers))
			for i := range res.Answers {
				sets = append(sets, res.Answers[i].NodeIDs())
			}
			sys := fmt.Sprintf("alpha-%.2f", a)
			for _, k := range ks {
				cells = append(cells, PrecisionCell{
					Query: p.ID, System: sys, K: k,
					Precision: oracle.PrecisionAtK(sets, k),
				})
			}
		}
	}

	systems := []string{VBanks}
	for _, a := range alphas {
		systems = append(systems, fmt.Sprintf("alpha-%.2f", a))
	}
	var tables []Table
	for _, k := range ks {
		t := Table{
			ID:     fmt.Sprintf("effectiveness/top-%d", k),
			Title:  fmt.Sprintf("Top-%d precision on %s (Fig. 11/12)", k, e.KB.Name),
			Header: append([]string{"query"}, systems...),
		}
		for qi := range e.KB.Planted {
			q := e.KB.Planted[qi].ID
			row := []string{q}
			for _, sys := range systems {
				for _, c := range cells {
					if c.Query == q && c.System == sys && c.K == k {
						row = append(row, fmt.Sprintf("%.0f%%", 100*c.Precision))
						break
					}
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, cells, nil
}
