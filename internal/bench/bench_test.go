package bench

import (
	"strings"
	"testing"

	"wikisearch/internal/graph"
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Config{Preset: "tiny-sim", QueriesPerSetting: 3, BanksMaxVisits: 20000, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvRejectsUnknownPreset(t *testing.T) {
	if _, err := NewEnv(Config{Preset: "nope"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTable2(t *testing.T) {
	env := tinyEnv(t)
	env.Cfg.SamplePairs = 200
	tbl, stats := Table2([]*Env{env})
	if len(stats) != 1 || len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if stats[0].Nodes != env.KB.Graph.NumNodes() || stats[0].AvgDist <= 0 {
		t.Fatalf("stats = %+v", stats[0])
	}
	if !strings.Contains(tbl.String(), "tiny-sim") {
		t.Fatal("table text missing dataset name")
	}
}

func TestFig3(t *testing.T) {
	env := tinyEnv(t)
	tbl, raw := env.Fig3(nil)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for key, fracs := range raw {
		sum := 0.0
		for _, f := range fracs {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: distribution sums to %v", key, sum)
		}
	}
	// Fig. 3 property: larger α ⇒ more nodes at level 0.
	if raw["alpha-0.40"][0] < raw["alpha-0.05"][0] {
		t.Fatal("larger alpha should not decrease the level-0 mass")
	}
}

func TestExp1TinyShape(t *testing.T) {
	env := tinyEnv(t)
	tables, runs, err := env.Exp1VaryKnum([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(PhaseNames) {
		t.Fatalf("panels = %d, want %d", len(tables), len(PhaseNames))
	}
	// Every variant measured at every x.
	for _, v := range EfficiencyVariants {
		for _, x := range []string{"2", "3"} {
			r, ok := FindRun(runs, v, x)
			if !ok {
				t.Fatalf("missing run %s @%s", v, x)
			}
			if r.TotalMs <= 0 {
				t.Fatalf("run %s@%s has no time", v, x)
			}
			if v != VBanks && r.Answers == 0 {
				t.Fatalf("run %s@%s returned no answers", v, x)
			}
		}
	}
}

func TestExp2Exp3Tables(t *testing.T) {
	env := tinyEnv(t)
	tbl, runs, err := env.Exp2VaryTopk([]int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(EfficiencyVariants) || len(runs) != 2*len(EfficiencyVariants) {
		t.Fatalf("rows=%d runs=%d", len(tbl.Rows), len(runs))
	}
	tbl3, runs3, err := env.Exp3VaryAlpha([]float64{0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl3.Rows) != len(EfficiencyVariants) || len(runs3) != 2*len(EfficiencyVariants) {
		t.Fatalf("alpha rows=%d runs=%d", len(tbl3.Rows), len(runs3))
	}
}

func TestExp4Threads(t *testing.T) {
	env := tinyEnv(t)
	tables, runs, err := env.Exp4VaryThreads([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(PhaseNames) {
		t.Fatalf("panels = %d", len(tables))
	}
	if _, ok := FindRun(runs, VCPU, "1"); !ok {
		t.Fatal("missing CPU-Par run at Tnum=1")
	}
	if _, ok := FindRun(runs, VBanks, "1"); ok {
		t.Fatal("BANKS must not appear in the thread sweep")
	}
}

func TestTable4Storage(t *testing.T) {
	env := tinyEnv(t)
	tbl, costs := Table4([]*Env{env}, 8)
	if len(costs) != 1 || len(tbl.Rows) != 1 {
		t.Fatal("missing rows")
	}
	if costs[0].MaxRunning <= costs[0].PreStorage {
		t.Fatal("running storage must exceed pre-storage")
	}
}

func TestTable5(t *testing.T) {
	env := tinyEnv(t)
	tbl := Table5([]*Env{env})
	if len(tbl.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tbl.Rows))
	}
	// Q11's rare keywords must have far lower kwf than Q10's.
	var kwfQ10, kwfQ11 string
	for _, r := range tbl.Rows {
		if r[0] == "Q10" {
			kwfQ10 = r[2]
		}
		if r[0] == "Q11" {
			kwfQ11 = r[2]
		}
	}
	if kwfQ10 == "" || kwfQ11 == "" {
		t.Fatal("missing Q10/Q11 rows")
	}
}

func TestEffectivenessTiny(t *testing.T) {
	env := tinyEnv(t)
	tables, cells, err := env.Effectiveness([]float64{0.1}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	if len(cells) != 11*2 { // 11 queries × (BANKS + one α)
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Precision < 0 || c.Precision > 1 {
			t.Fatalf("precision out of range: %+v", c)
		}
	}
}

func TestAblations(t *testing.T) {
	env := tinyEnv(t)
	tbl, stats, err := env.AblationLevelCover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("level-cover ablation rows = %d", len(tbl.Rows))
	}
	with, without := stats[0], stats[1]
	if with.Config != "with level-cover" || without.Config != "without level-cover" {
		t.Fatalf("configs = %q / %q", with.Config, without.Config)
	}
	// Without pruning answers cannot shrink, and nothing is reported pruned.
	if without.AvgNodes < with.AvgNodes {
		t.Fatalf("unpruned answers smaller: %v < %v", without.AvgNodes, with.AvgNodes)
	}
	if without.AvgPruned != 0 {
		t.Fatalf("unpruned run reports %v pruned nodes", without.AvgPruned)
	}

	tbl, stats, err = env.AblationActivation(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatal("missing activation ablation stats")
	}
	if stats[0].Answers == 0 || stats[1].Answers == 0 {
		t.Fatal("ablation produced no answers")
	}
	_ = tbl

	bt, err := env.AblationBaselines(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Rows) != 4 {
		t.Fatalf("baseline rows = %d, want 4", len(bt.Rows))
	}
}

func TestRepetition(t *testing.T) {
	env := tinyEnv(t)
	stats, err := env.Repetition("Q4", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("systems = %d", len(stats))
	}
	for _, s := range stats {
		if s.MeanJaccard < 0 || s.MeanJaccard > 1 {
			t.Fatalf("%s: jaccard = %v", s.System, s.MeanJaccard)
		}
		if s.Answers > 0 && s.MaxNodeRecurrence < 1 {
			t.Fatalf("%s: recurrence = %d with %d answers", s.System, s.MaxNodeRecurrence, s.Answers)
		}
	}
	if _, err := env.Repetition("Q99", 10); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestJaccard(t *testing.T) {
	a := []graph.NodeID{1, 2, 3}
	b := []graph.NodeID{2, 3, 4}
	if j := jaccard(a, b); j < 0.499 || j > 0.501 {
		t.Fatalf("jaccard = %v, want 0.5", j)
	}
	if j := jaccard(a, a); j != 1 {
		t.Fatalf("self jaccard = %v", j)
	}
	if j := jaccard(nil, nil); j != 0 {
		t.Fatalf("empty jaccard = %v", j)
	}
	// Duplicates in one set must not inflate the measure.
	if j := jaccard([]graph.NodeID{1, 1, 2}, []graph.NodeID{2, 2}); j < 0.499 || j > 0.501 {
		t.Fatalf("dup jaccard = %v", j)
	}
}

func TestScaling(t *testing.T) {
	tbl, points, err := Scaling(Config{QueriesPerSetting: 2, Knum: 3, Threads: 2}, []int{1500, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].Nodes <= points[0].Nodes {
		t.Fatal("sizes not increasing")
	}
	for _, p := range points {
		if p.TotalMs <= 0 || p.Answers <= 0 {
			t.Fatalf("point = %+v", p)
		}
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{ID: "x", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "22"}}}
	s := tbl.String()
	if !strings.Contains(s, "== x — t ==") || !strings.Contains(s, "22") {
		t.Fatalf("table render:\n%s", s)
	}
}
