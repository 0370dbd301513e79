package main

import "strings"

// metricDef names one metric of the catalog and its unit. BENCHMARK.json
// lists the same names and units, with direction and bound (a unit test
// keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the library or the server sees; every run
// with --trace 0 reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"colors_used", "count"},
	{"local_rounds", "rounds"},
	{"alloc_mb_per_op", "MiB"},
	{"slo_ratio", "ratio"},
}

// roundPhases are the ledger phases of the three algorithms the workloads
// run (planar6 and sparse share the core phases; gps7 has its own). A
// phase "a/b" reports as "rounds.a-b".
var roundPhases = []string{
	"peel/happy", "extend/ruling", "extend/rootballs", "extend/schedule/reduce",
	"extend/schedule/linial", "extend/layered", "clique-check",
	"gps7/peel", "gps7/linial", "gps7/recolor",
}

func roundsMetric(phase string) string {
	return "rounds." + strings.ReplaceAll(phase, "/", "-")
}

// spanNames maps server span names to the per-layer metric of their self
// time. The engine.<phase> spans together make span.engine_ms.
var spanNames = []struct{ span, metric string }{
	{"HTTP POST /v1/jobs", "span.http_ms"},
	{"store.resolve", "span.store-resolve_ms"},
	{"queue.wait", "span.queue-wait_ms"},
	{"job.run", "span.job-run_ms"},
	{"HTTP POST /v1/graphs", "span.upload_ms"},
}

const (
	engineSpanPrefix = "engine."
	engineSpanMetric = "span.engine_ms"
)

func spanMetrics() []string {
	var out []string
	for _, s := range spanNames {
		out = append(out, s.metric)
	}
	return append(out, engineSpanMetric)
}

// perLayer is what --trace 1 reports: one layer's work, waiting or counts
// each. A metric that a workload does not exercise (uploads on a batch
// workload, core phases under gps7) reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"graph.open_ms_p50", "ms"},
		{"algo.run_ms_p50", "ms"},
		{"colors.encode_ms_p50", "ms"},
		{"seqcolor.verify_ms_p50", "ms"},
		{"serve.upload_ms_p50", "ms"},
		{"serve.upload_ms_p90", "ms"},
		{"serve.job_ms_p50", "ms"},
		{"serve.job_ms_p90", "ms"},
		{"serve.colors_ms_p50", "ms"},
		{"serve.queue_ms_p50", "ms"},
		{"serve.queue_ms_p90", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.run_ms_p90", "ms"},
		{"serve.http_ms_p50", "ms"},
		{"store.hits_per_op", "count"},
		{"store.misses_per_op", "count"},
		{"store.evictions_per_op", "count"},
		{"serve.rejected_total", "count"},
		{"alloc.objects_per_op", "count"},
		{"mem.peak_rss_mb", "MiB"},
		{"trace.overhead_ratio", "ratio"},
		{"wall.op_ms_p50", "ms"},
		{"machine.probe_ms_p50", "ms"},
	}
	for _, p := range roundPhases {
		defs = append(defs, metricDef{roundsMetric(p), "rounds"})
	}
	for _, m := range spanMetrics() {
		defs = append(defs, metricDef{m, "ms"})
	}
	for _, l := range profLayers() {
		defs = append(defs, metricDef{"prof." + l + "_ms", "ms"})
	}
	return defs
}

// fillMissing sets every catalog metric this run did not measure to 0, so
// each run reports the whole catalog.
func (r *result) fillMissing(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0, d.unit, 0)
		}
	}
}
