package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"distcolor/internal/serve"
)

// inProcessServer serves from a serve.Server inside the test process, in
// place of a distcolor-serve subprocess.
func inProcessServer(ctx context.Context, sc serverConf) (*target, error) {
	opts := serve.Options{Workers: serverProcs, EnablePprof: true, TraceSample: -1, GraphCacheWeight: sc.cache}
	if sc.traced {
		opts.TraceSample, opts.TraceRing = 1, traceRing
	}
	s := serve.New(opts)
	ts := httptest.NewServer(s)
	return &target{base: ts.URL, pid: os.Getpid(), stop: func() { ts.Close(); s.Close() }}, nil
}

// tinyWorkloads are the workloads at a size that runs in a moment.
func tinyWorkloads() []workload {
	planar, sparse, cold := colorPlanar, colorSparse, serveCold
	planar.spec, sparse.spec = "apollonian:300", "regular:300,3"
	cold.spec, cold.graphs, cold.cache = "apollonian:200", 3, 3000
	return []workload{planar.workload(), sparse.workload(), cold.workload()}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and profiles")
	}
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 400 * time.Millisecond, trace: traced, workdir: t.TempDir(), start: inProcessServer}
			res, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, name := range []string{"op_ms_p50", "colors_used", "local_rounds", "slo_ratio", "setup_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// harness reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		benchmarkFile
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	same := func(kind string, listed []boundDef, want []metricDef) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(want))
		}
		for i := range min(len(listed), len(want)) {
			if listed[i].Name != want[i].name || listed[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer())
}
