package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"wikisearch/internal/gen"
	"wikisearch/internal/text"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 100, 100}, {95, 190, 10}, {99, 198, 2}, {100, 200, 0}} {
		got, beyond := percentile(v, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%g of 1..200 = %g with %d beyond, want %g with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if got, beyond := percentile(nil, 95); got != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", got, beyond)
	}
}

// A tail percentile is reported only with ten samples beyond it: p95 needs
// 200 samples, p99 needs 1000.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1100, 99}, {10000, 99.9}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.5, 9.8, 10.1, 10.9, 9.9, 10.0, 10.2, 10.4, 9.7, 10.3}, 9.875, 10.425},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestMetricTables(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %v", d.Name, metricName)
			}
			if !unit.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", endToEnd[0])
	}
	for _, bad := range []string{"", "has space", "ünicode", "-leading", "a/b"} {
		if metricName.MatchString(bad) {
			t.Errorf("metricName accepts %q", bad)
		}
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver; it
// must not drift from the ones the program reports by.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n%+v\n%+v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
}

func multiset(order []int32) map[int32]int {
	m := map[int32]int{}
	for _, q := range order {
		m[q]++
	}
	return m
}

// The generators are pure functions of (workload, seed); across seeds a pass
// holds the same visits in another order.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := visitOrder(spec, 300, 7), visitOrder(spec, 300, 7), visitOrder(spec, 300, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: visit order differs between two runs on one seed", spec.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: visit order is the same on seeds 7 and 8", spec.Name)
		}
		if !reflect.DeepEqual(multiset(a), multiset(c)) {
			t.Errorf("%s: seeds 7 and 8 visit different multisets of queries", spec.Name)
		}
		want := 300
		if spec.Zipf > 0 {
			want = spec.Pass
			counts := multiset(a)
			if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
				t.Errorf("%s: visit counts are not Zipf-like: %d, %d, %d, %d", spec.Name, counts[0], counts[1], counts[10], counts[200])
			}
		}
		if len(a) != want {
			t.Errorf("%s: a pass has %d visits, want %d", spec.Name, len(a), want)
		}
	}

	kb := gen.Generate(gen.TinySim())
	ix := text.BuildIndex(kb.Graph)
	spec, _ := findWorkload("mutate-mix")
	pool := buildPool(kb.Graph, ix, spec)
	if len(pool) == 0 || !reflect.DeepEqual(pool, buildPool(kb.Graph, ix, spec)) {
		t.Errorf("query population of %d is not reproducible", len(pool))
	}
	keys := map[string]bool{}
	for _, q := range pool {
		n := len(text.QueryTerms(q))
		if n < 2 || n > 3 {
			t.Errorf("population query %q has %d keywords, want 2-3", q, n)
		}
		key := strings.Join(text.QueryTerms(q), " ") // what the result cache keys on
		if keys[key] {
			t.Errorf("population holds %q twice", q)
		}
		keys[key] = true
	}
	x, err := mutationBatches(kb.Graph, spec, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := mutationBatches(kb.Graph, spec, 60, 3)
	z, _ := mutationBatches(kb.Graph, spec, 60, 4)
	if !reflect.DeepEqual(x, y) {
		t.Error("write stream differs between two runs on one seed")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("write stream is the same on seeds 3 and 4")
	}
	if x[0].Plant == "" || x[50].Plant == "" || x[1].Plant != "" || x[0].Plant == x[50].Plant {
		t.Errorf("planted tokens: %q, %q, %q", x[0].Plant, x[1].Plant, x[50].Plant)
	}
	if got := text.QueryTerms(x[50].Plant); len(got) != 1 {
		t.Errorf("planted token %q normalizes to %v, want one term", x[50].Plant, got)
	}
}

func TestWholePasses(t *testing.T) {
	var samples []sample
	for pos := 0; pos < 25; pos++ {
		if pos == 13 {
			continue // a position whose search was still in flight at the deadline
		}
		samples = append(samples, sample{pos: int64(pos)})
	}
	passes := wholePasses(samples, 10)
	if len(passes) != 2 || len(passes[0]) != 10 || len(passes[1]) != 9 || passes[1][0].pos != 10 {
		t.Errorf("positions 0..24 less 13 over a pass of 10: got %d passes %v", len(passes), passes)
	}
	if passes := wholePasses(samples, 40); len(passes) != 1 || len(passes[0]) != 24 {
		t.Errorf("a run shorter than one pass must keep everything, got %v", passes)
	}
	if passes := wholePasses(nil, 10); passes != nil {
		t.Errorf("no samples, no passes: got %v", passes)
	}
}

// smokeSpec shrinks a workload to tiny-sim.
func smokeSpec(spec workloadSpec) workloadSpec {
	spec.Preset = "tiny-sim"
	spec.Pool = min(spec.Pool, 48)
	if spec.Zipf > 0 {
		spec.Pass = 128
	}
	spec.TraceSample = 4
	return spec
}

// TestSmoke runs every workload end to end and traced on tiny-sim: no
// operation may fail, every declared metric must be reported, and the
// traced self times must telescope to the outermost span.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(runConfig{
				Spec: smokeSpec(spec), Seed: 5, Seconds: 0.3, Trace: trace,
				OutDir: t.TempDir(), SetupReps: 1,
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", spec.Name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed: %v", spec.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 || rep.Env.Nodes == 0 || rep.Env.Commit == "" {
				t.Errorf("%s: incomplete environment stamp %+v", spec.Name, rep.Env)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok && !(rep.Env.NumCPU == 1 && (d.Name == "parallel.speedup" || d.Name == "parallel.efficiency")) {
					t.Errorf("%s trace=%t: metric %s missing", spec.Name, trace, d.Name)
				}
				if ok && v.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", spec.Name, d.Name, v.Unit, d.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", spec.Name, d.Name, v.Value)
				}
			}
			if len(rep.Metrics) > len(defs) {
				t.Errorf("%s trace=%t: %d metrics reported, %d declared", spec.Name, trace, len(rep.Metrics), len(defs))
			}
			if !trace {
				continue
			}
			val := func(name string) float64 { return rep.Metrics[name].Value }
			inner := val("engine.self_us")/1e3 + val("core.search_ms")
			if got := val("engine.search_ms"); math.Abs(inner-got) > 1e-6 {
				t.Errorf("%s: engine.self + core.search = %g ms, engine.search = %g ms", spec.Name, inner, got)
			}
			if spec.HTTP {
				sum := (val("http.self_us")+val("server.self_us"))/1e3 + inner
				if got := val("http.roundtrip_ms"); got <= 0 || math.Abs(sum-got) > 1e-6 {
					t.Errorf("%s: self times add up to %g ms, the round trip took %g ms", spec.Name, sum, got)
				}
			}
			if u := val("core.unattributed_pct"); u < 0 || u > 50 {
				t.Errorf("%s: core.unattributed_pct = %g", spec.Name, u)
			}
			if spec.WriteRate > 0 && (val("mutate.ack_p50_ms") <= 0 || val("epoch.retired") <= 0) {
				t.Errorf("%s: write-side metrics are empty: ack p50 %g ms, %g epochs retired",
					spec.Name, val("mutate.ack_p50_ms"), val("epoch.retired"))
			}
		}
	}
}
