package main

import "testing"

func TestVerdict(t *testing.T) {
	for name, c := range map[string]struct {
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		"within bound":            {[]float64{100, 100, 100}, []float64{105, 105, 105}, "lower", 0.1, "ok"},
		"better":                  {[]float64{100, 100, 100}, []float64{80, 80, 80}, "lower", 0.1, "ok"},
		"worse than bound":        {[]float64{100, 100, 100}, []float64{115, 115, 115}, "lower", 0.1, "worse"},
		"higher is better, worse": {[]float64{1, 1, 1}, []float64{0.95, 0.95, 0.95}, "higher", 0.01, "worse"},
		"higher is better, ok":    {[]float64{0.95, 0.95, 0.95}, []float64{1, 1, 1}, "higher", 0.01, "ok"},
		"exact bound zero":        {[]float64{6}, []float64{7}, "lower", 0, "worse"},
		"spread wider than bound": {[]float64{80, 100, 120, 100}, []float64{90, 130, 100, 110}, "lower", 0.1, "unresolved"},
		"wide spread, all better": {[]float64{80, 100, 120, 100}, []float64{50, 60, 70, 75}, "lower", 0.1, "ok"},
		"no runs of B":            {[]float64{1}, nil, "lower", 0.1, "worse"},
	} {
		if _, _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", name, got, c.want)
		}
	}
}

func TestCompareExactCountsNeedSameSeeds(t *testing.T) {
	def := benchmarkFile{EndToEnd: []boundDef{
		{Name: "local_rounds", Better: "lower", Bound: 0.001},
		{Name: "op_ms_p50", Better: "lower", Bound: 0.1},
	}}
	run := func(seed uint64, rounds, op float64) *result {
		return &result{Workload: "w", Seed: seed, Metrics: map[string]measure{
			"local_rounds": {Value: rounds}, "op_ms_p50": {Value: op},
		}}
	}
	rows := compareRuns(def, []*result{run(1, 1000, 10)}, []*result{run(1, 1000.5, 10.5)})
	if len(rows) != 2 || rows[0].verdict != "worse" || rows[1].verdict != "ok" {
		t.Fatalf("same seeds: %+v; want local_rounds worse (must match exactly), op_ms_p50 ok", rows)
	}
	rows = compareRuns(def, []*result{run(1, 1000, 10)}, []*result{run(2, 1000.5, 10.5)})
	if rows[0].verdict != "ok" {
		t.Errorf("different seeds: %+v; want local_rounds held to its bound only", rows[0])
	}
}
