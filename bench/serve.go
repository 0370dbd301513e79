package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"distcolor"
	"distcolor/internal/graph"
	"distcolor/internal/serve/runcfg"
)

// serveWorkload drives a distcolor-serve process over HTTP, one request at
// a time. One request is one op: upload a graph as an edge-list text (the
// server parses it into a new graph every time), POST a job on it with
// ?wait=true, then GET its colors as raw little-endian int32 and check them
// against the harness's own copy of the graph.
//
// The loop is closed, and like the batch workloads every op starts from a
// collected heap (the harness asks the server for a collection) and sits
// between two probes. An open loop of short requests was tried first: at
// 15 req/s on 20000-vertex graphs its p95 moved by 20–66% between runs on
// the reference machine, its p75 by 16–27% and even a closed loop's
// service-time p75 by 15–25%, because short stalls of the host, which no
// probe sees, decide a short request's tail. This op is ten times longer.
// Its p90 still spread 12% over ten runs in a busy spell, against 5–8% at
// p75, so op_ms_tail is p75 here as on the batch workloads.
type serveWorkload struct {
	name    string
	spec    string // generator spec of each graph
	graphs  int    // distinct graphs the requests draw from
	algo    string
	palette int
	slo     time.Duration
	cache   int64 // server -cache bound; 0 keeps the server default
	// probeRef is the probe's time on the first graph of the set in a
	// quiet spell of the reference machine (the fastest seen while the
	// benchmark was defined).
	probeRef time.Duration
}

// serveCold's graphs weigh 700000 adjacency entries each in the server's
// store, so a 1000000 bound holds one: every upload evicts the graph before.
var serveCold = serveWorkload{
	name: "serve-cold", spec: "apollonian:100000", graphs: 4, algo: "gps7",
	palette: 7, slo: 500 * time.Millisecond, cache: 1_000_000,
	probeRef: 55 * time.Millisecond,
}

const (
	// layerTail is the tail quantile of the serve stage timings in the
	// per-layer metrics: a 30 s run completes 100–150 requests, 10–15
	// beyond p90.
	layerTail = 0.90
	// warmupOps run after each set-up, before anything is measured: one
	// per graph.
	warmupOps = 4
	// traceSpans bounds how many request traces a traced run fetches.
	traceSpans = 60
	// serveFixedOps is serve-cold's fixed op set (see fixedOps). gps7's
	// round count moves by a few percent from one ID shuffle to the next,
	// so the mean needs more requests than the batch workloads' ops to
	// repeat within a few tenths of a percent across seeds; a traced half
	// completes 50–70.
	serveFixedOps = 40
)

func (w serveWorkload) workload() workload { return workload{name: w.name, run: w.run} }

// serveInputs are the graphs the requests upload: the harness's own copies,
// for checking, and their edge-list texts.
type serveInputs struct {
	graphs []*graph.Graph
	texts  [][]byte
}

type serveState struct {
	serveInputs
	t    *target
	load *http.Client // the measured requests, on one connection
	ctl  *http.Client // collections, counters, profiles and spans, outside the ops
}

// serveReq is what request i asks for.
type serveReq struct {
	graph int
	seed  uint64
}

// serveOp is one request's stage timings and outcome. total is the whole
// request at the client; probe is the probe after it, and scale turns its
// wall times into reference-speed ones.
type serveOp struct {
	upload, job, colors, check, total time.Duration
	probe                             time.Duration
	scale                             float64
	queueMs, runMs                    float64
	rounds                            int
	phases                            map[string]int
	colorsUsed                        int
	jobTrace, uploadTrace             string
	err                               error
}

// servePhase is one measured stretch of requests against one server.
type servePhase struct {
	ops    []serveOp
	before map[string]float64
	after  map[string]float64
	rssMiB float64
	cpu    map[string]int64 // server CPU ns per layer; traced phases only
}

func (w serveWorkload) run(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult(w.name, cfg)
	in, err := w.inputs()
	if err != nil {
		return nil, err
	}
	pr := newProbe(in.graphs[0], w.probeRef)
	if !cfg.trace {
		var st *serveState
		var setupTimes []float64
		before := pr.run()
		for i := 0; i < setups; i++ {
			if st != nil {
				st.t.stop()
			}
			t0 := time.Now()
			s, err := w.setup(ctx, cfg, in, serverConf{cache: w.cache})
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			wall := time.Since(t0)
			after := pr.run()
			setupTimes = append(setupTimes, wall.Seconds()*pr.scale(before, after))
			before = after
			st = s
		}
		ph, err := w.measure(ctx, st, pr, cfg.seed, cfg.seconds, res, false)
		st.t.stop()
		if err != nil {
			return nil, err
		}
		res.set("setup_s", median(setupTimes), "s", len(setupTimes))
		w.endToEnd(res, ph)
		res.fillMissing(endToEnd)
	} else {
		st, err := w.setup(ctx, cfg, in, serverConf{cache: w.cache})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		plain, err := w.measure(ctx, st, pr, cfg.seed, cfg.seconds/2, res, false)
		st.t.stop()
		if err != nil {
			return nil, err
		}
		st, err = w.setup(ctx, cfg, in, serverConf{cache: w.cache, traced: true})
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		traced, err := w.measure(ctx, st, pr, cfg.seed, cfg.seconds/2, res, true)
		if err == nil {
			err = w.perLayer(ctx, st, res, plain, traced)
		}
		st.t.stop()
		if err != nil {
			return nil, err
		}
		res.fillMissing(perLayer())
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// inputs generates the graphs and their edge-list texts. They are the
// client's data, made once per run and not part of the server's set-up.
func (w serveWorkload) inputs() (serveInputs, error) {
	var in serveInputs
	for k := 0; k < w.graphs; k++ {
		g, err := runcfg.Generate(w.spec, instanceSeed+uint64(k))
		if err != nil {
			return in, err
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return in, err
		}
		in.graphs = append(in.graphs, g)
		in.texts = append(in.texts, buf.Bytes())
	}
	return in, nil
}

// setup starts a server and runs the warm-up ops.
func (w serveWorkload) setup(ctx context.Context, cfg runConfig, in serveInputs, sc serverConf) (*serveState, error) {
	t, err := cfg.start(ctx, sc)
	if err != nil {
		return nil, err
	}
	st := &serveState{serveInputs: in, t: t, load: newClient(1), ctl: newClient(1)}
	for i, s := range seedList(cfg.seed, streamWarmup, warmupOps) {
		if o := w.op(ctx, st, serveReq{graph: i % w.graphs, seed: s}); o.err != nil {
			t.stop()
			return nil, fmt.Errorf("warm-up op: %w", o.err)
		}
	}
	return st, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// requests gives each of n requests its graph, in turn, and its job seed,
// drawn from the workload seed; a longer list extends a shorter one.
func (w serveWorkload) requests(seed uint64, n int) []serveReq {
	seeds := seedList(seed, streamOps, n)
	reqs := make([]serveReq, n)
	for i := range reqs {
		reqs[i] = serveReq{graph: i % w.graphs, seed: seeds[i]}
	}
	return reqs
}

// measure sends the seed's requests one after another until d has passed,
// each from a collected server heap, with a probe before the first and
// after each.
func (w serveWorkload) measure(ctx context.Context, st *serveState, pr *probe, seed uint64, d time.Duration, res *result, traced bool) (*servePhase, error) {
	ph := &servePhase{}
	var err error
	if ph.before, err = st.counters(ctx); err != nil {
		return nil, err
	}
	var prof []byte
	profDone := make(chan error, 1)
	if traced {
		go func() {
			// The endpoint reads seconds=0 as its 30 s default, and holds
			// the request for the whole profile, past the client timeout.
			secs := max(1, int(d.Seconds()))
			pctx, cancel := context.WithTimeout(ctx, time.Duration(2*secs)*time.Second)
			defer cancel()
			c := newClient(1)
			c.Timeout = 0
			var perr error
			prof, _, perr = st.do(pctx, c, "GET", fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs), nil, http.StatusOK)
			profDone <- perr
		}()
	}
	reqs := w.requests(seed, 64)
	before := pr.run()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == len(reqs) {
			reqs = w.requests(seed, 2*len(reqs))
		}
		if err := st.collect(ctx); err != nil {
			return nil, err
		}
		t0 := time.Now()
		o := w.op(ctx, st, reqs[i])
		o.total = time.Since(t0)
		o.probe = pr.run()
		o.scale = pr.scale(before, o.probe)
		before = o.probe
		res.Attempted++
		if o.err != nil {
			res.fail(fmt.Errorf("request %d: %w", i, o.err))
		}
		ph.ops = append(ph.ops, o)
	}
	if traced {
		if err := <-profDone; err != nil {
			return nil, fmt.Errorf("server CPU profile: %w", err)
		}
	}
	if ph.after, err = st.counters(ctx); err != nil {
		return nil, err
	}
	ph.rssMiB = peakRSS(st.t.pid)
	if traced {
		samples, err := parseProfile(prof)
		if err != nil {
			return nil, err
		}
		ph.cpu = attribute(samples)
	}
	return ph, nil
}

// jobView is the subset of the server's job JSON the harness checks.
type jobView struct {
	ID         string  `json:"id"`
	Status     string  `json:"status"`
	Error      string  `json:"error"`
	ColorsUsed int     `json:"colors_used"`
	Rounds     int     `json:"rounds"`
	Verified   bool    `json:"verified"`
	QueueMs    float64 `json:"queue_ms"`
	RunMs      float64 `json:"run_ms"`
	Phases     []struct {
		Name   string `json:"name"`
		Rounds int    `json:"rounds"`
	} `json:"phases"`
}

func (w serveWorkload) op(ctx context.Context, st *serveState, rq serveReq) serveOp {
	var o serveOp
	g := st.graphs[rq.graph]
	t0 := time.Now()
	var up struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	hdr, err := st.post(ctx, st.load, "/v1/graphs", "text/plain", st.texts[rq.graph], http.StatusCreated, &up)
	o.upload = time.Since(t0)
	if err != nil {
		o.err = fmt.Errorf("upload: %w", err)
		return o
	}
	if up.N != g.N() {
		o.err = fmt.Errorf("upload parsed %d vertices, sent %d", up.N, g.N())
		return o
	}
	o.uploadTrace = traceID(hdr)
	body, _ := json.Marshal(map[string]any{"graph": up.ID, "algo": w.algo, "seed": rq.seed})
	t1 := time.Now()
	var job jobView
	hdr, err = st.post(ctx, st.load, "/v1/jobs?wait=true", "application/json", body, http.StatusAccepted, &job)
	o.job = time.Since(t1)
	if err != nil {
		o.err = fmt.Errorf("job: %w", err)
		return o
	}
	o.jobTrace = traceID(hdr)
	o.queueMs, o.runMs, o.rounds = job.QueueMs, job.RunMs, job.Rounds
	o.phases = map[string]int{}
	for _, p := range job.Phases {
		o.phases[p.Name] += p.Rounds
	}
	if err := w.checkJob(g, job); err != nil {
		o.err = err
		return o
	}
	t2 := time.Now()
	raw, _, err := st.do(ctx, st.load, "GET", "/v1/jobs/"+job.ID+"/colors", nil, http.StatusOK, "Accept", "application/octet-stream")
	o.colors = time.Since(t2)
	if err != nil {
		o.err = fmt.Errorf("colors: %w", err)
		return o
	}
	t3 := time.Now()
	colors, err := decodeColors(raw, g.N())
	if err == nil {
		err = checkColoring(g, colors, w.palette)
	}
	o.check = time.Since(t3)
	if err != nil {
		o.err = fmt.Errorf("job %s: %w", job.ID, err)
		return o
	}
	o.colorsUsed = distcolor.NumColors(colors)
	return o
}

func (w serveWorkload) checkJob(g *graph.Graph, job jobView) error {
	switch {
	case job.Status != "done":
		return fmt.Errorf("job %s is %q: %s", job.ID, job.Status, job.Error)
	case !job.Verified:
		return fmt.Errorf("job %s done but not verified", job.ID)
	case job.ColorsUsed > w.palette:
		return fmt.Errorf("job %s used %d colors, palette %d", job.ID, job.ColorsUsed, w.palette)
	}
	return checkRounds(w.algo, g, job.Rounds)
}

// do sends one request to the server and returns the reply body and
// headers, requiring status want. headers are name, value pairs.
func (st *serveState) do(ctx context.Context, c *http.Client, method, path string, body []byte, want int, headers ...string) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.t.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, resp.Header, nil
}

// post sends body and decodes the JSON reply into out.
func (st *serveState) post(ctx context.Context, c *http.Client, path, ctype string, body []byte, want int, out any) (http.Header, error) {
	raw, hdr, err := st.do(ctx, c, "POST", path, body, want, "Content-Type", ctype)
	if err != nil {
		return nil, err
	}
	return hdr, json.Unmarshal(raw, out)
}

// traceID extracts the trace ID from a W3C traceparent response header.
func traceID(h http.Header) string {
	parts := strings.Split(h.Get("Traceparent"), "-")
	if len(parts) != 4 {
		return ""
	}
	return parts[1]
}

// counters reads the server's /metrics samples plus its allocator totals
// (TotalAlloc and Mallocs from the runtime.MemStats the heap profile
// endpoint prints).
func (st *serveState) counters(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	raw, _, err := st.do(ctx, st.ctl, "GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	raw, _, err = st.do(ctx, st.ctl, "GET", "/debug/pprof/heap?debug=1", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, k := range []string{"TotalAlloc", "Mallocs"} {
			var v float64
			if _, err := fmt.Sscanf(line, "# "+k+" = %g", &v); err == nil {
				out["memstats."+k] = v
			}
		}
	}
	if _, ok := out["memstats.TotalAlloc"]; !ok {
		return nil, fmt.Errorf("no allocator totals in the heap profile")
	}
	return out, nil
}

func (ph *servePhase) delta(name string) float64 { return ph.after[name] - ph.before[name] }

// collect has the server run a full collection (the heap profile endpoint
// does one first) and waits for it to finish.
func (st *serveState) collect(ctx context.Context) error {
	_, _, err := st.do(ctx, st.ctl, "GET", "/debug/pprof/heap?gc=1", nil, http.StatusOK)
	return err
}

// latencies are the successful requests' latencies, in wall ms or (ref) at
// reference speed.
func (ph *servePhase) latencies(ref bool) []float64 {
	var out []float64
	for _, o := range ph.ops {
		if o.err == nil {
			out = append(out, o.latency(ref))
		}
	}
	return out
}

func (o serveOp) latency(ref bool) float64 {
	if ref {
		return msOf(o.total) * o.scale
	}
	return msOf(o.total)
}

func (w serveWorkload) endToEnd(res *result, ph *servePhase) {
	lat := ph.latencies(true)
	res.set("op_ms_p50", median(lat), "ms", len(lat))
	res.set("op_ms_tail", quantile(lat, opTail), "ms", len(lat))
	warnThinTail(w.name, len(lat), opTail)
	var colors, rounds []float64
	inSLO := 0
	for i, o := range ph.ops {
		if o.err != nil {
			continue
		}
		colors = append(colors, float64(o.colorsUsed))
		if i < serveFixedOps {
			rounds = append(rounds, float64(o.rounds))
		}
		if o.latency(true) <= msOf(w.slo) {
			inSLO++
		}
	}
	n := float64(len(ph.ops))
	res.set("colors_used", maxOf(colors), "count", len(colors))
	res.set("local_rounds", mean(rounds), "rounds", len(rounds))
	res.set("alloc_mb_per_op", ph.delta("memstats.TotalAlloc")/n/(1<<20), "MiB", len(ph.ops))
	res.set("slo_ratio", float64(inSLO)/n, "ratio", len(ph.ops))
}

func (w serveWorkload) perLayer(ctx context.Context, st *serveState, res *result, plain, traced *servePhase) error {
	fromOps := func(f func(serveOp) float64) []float64 {
		var out []float64
		for _, o := range traced.ops {
			if o.err == nil {
				out = append(out, f(o))
			}
		}
		return out
	}
	p50 := func(name string, xs []float64) { res.set(name+"_p50", median(xs), "ms", len(xs)) }
	tail := func(name string, xs []float64) { res.set(name+"_p90", quantile(xs, layerTail), "ms", len(xs)) }
	upload := fromOps(func(o serveOp) float64 { return msOf(o.upload) })
	job := fromOps(func(o serveOp) float64 { return msOf(o.job) })
	queue := fromOps(func(o serveOp) float64 { return o.queueMs })
	run := fromOps(func(o serveOp) float64 { return o.runMs })
	p50("serve.upload_ms", upload)
	tail("serve.upload_ms", upload)
	p50("serve.job_ms", job)
	tail("serve.job_ms", job)
	p50("serve.colors_ms", fromOps(func(o serveOp) float64 { return msOf(o.colors) }))
	p50("seqcolor.verify_ms", fromOps(func(o serveOp) float64 { return msOf(o.check) }))
	p50("serve.queue_ms", queue)
	tail("serve.queue_ms", queue)
	p50("serve.run_ms", run)
	tail("serve.run_ms", run)
	p50("serve.http_ms", fromOps(func(o serveOp) float64 { return msOf(o.job) - o.queueMs - o.runMs }))

	n := float64(len(traced.ops))
	res.set("store.hits_per_op", traced.delta("distcolor_graph_store_hits_total")/n, "count", len(traced.ops))
	res.set("store.misses_per_op", traced.delta("distcolor_graph_store_misses_total")/n, "count", len(traced.ops))
	res.set("store.evictions_per_op", traced.delta("distcolor_graph_store_evictions_total")/n, "count", len(traced.ops))
	res.set("serve.rejected_total", traced.delta("distcolor_jobs_rejected_total"), "count", 0)
	res.set("alloc.objects_per_op", traced.delta("memstats.Mallocs")/n, "count", len(traced.ops))
	res.set("mem.peak_rss_mb", plain.rssMiB, "MiB", 0)

	wall := plain.latencies(false)
	res.set("wall.op_ms_p50", median(wall), "ms", len(wall))
	var probes []float64
	for _, o := range append(slices.Clip(plain.ops), traced.ops...) {
		probes = append(probes, msOf(o.probe))
	}
	res.set("machine.probe_ms_p50", median(probes), "ms", len(probes))
	res.set("trace.overhead_ratio", median(traced.latencies(true))/median(plain.latencies(true)), "ratio", len(traced.ops))

	var phases []map[string]int
	for i, o := range traced.ops {
		if o.err == nil && i < serveFixedOps {
			phases = append(phases, o.phases)
		}
	}
	setRounds(res, phases)
	setProfile(res, traced.cpu, len(traced.ops))
	return w.spanMetrics(ctx, st, res, traced)
}

// spanJSON is one span of GET /v1/traces/{id}.
type spanJSON struct {
	SpanID      string `json:"span_id"`
	ParentID    string `json:"parent_id"`
	Name        string `json:"name"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
}

// spanMetrics fetches the span trees of up to traceSpans jobs and their
// uploads from the traced server and reports the median self time of each
// layer.
func (w serveWorkload) spanMetrics(ctx context.Context, st *serveState, res *result, ph *servePhase) error {
	var ids []string
	for _, o := range ph.ops {
		if o.err != nil || len(ids) >= 2*traceSpans {
			continue
		}
		ids = append(ids, o.jobTrace, o.uploadTrace)
	}
	self := map[string][]float64{}
	for _, id := range ids {
		raw, _, err := st.do(ctx, st.ctl, "GET", "/v1/traces/"+id, nil, http.StatusOK)
		if err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
		var tr struct {
			Spans []spanJSON `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
		for metric, v := range selfTimes(tr.Spans) {
			self[metric] = append(self[metric], v)
		}
	}
	for _, m := range spanMetrics() {
		res.set(m, median(self[m]), "ms", len(self[m]))
	}
	return nil
}

// selfTimes returns, per span metric, the self time in ms of one trace's
// spans: each span's duration minus the part of its interval its children
// cover. The engine.<phase> spans are timed retroactively from the round
// ledger and may overlap one another, so span.engine_ms is the length of
// their union instead of a sum.
func selfTimes(spans []spanJSON) map[string]float64 {
	children := map[string][]spanJSON{}
	var engine []spanJSON
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
		if strings.HasPrefix(s.Name, engineSpanPrefix) {
			engine = append(engine, s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		for _, n := range spanNames {
			if s.Name == n.span {
				covered := coveredNs(s.StartUnixNs, s.StartUnixNs+s.DurNs, children[s.SpanID])
				out[n.metric] += float64(s.DurNs-covered) / 1e6
			}
		}
	}
	if len(engine) > 0 {
		out[engineSpanMetric] = float64(coveredNs(math.MinInt64, math.MaxInt64, engine)) / 1e6
	}
	return out
}

// coveredNs is the length of the union of the children's intervals
// clipped to [lo, hi).
func coveredNs(lo, hi int64, kids []spanJSON) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUnixNs, lo), min(k.StartUnixNs+k.DurNs, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// peakRSS is the peak resident set (VmHWM) of process pid in MiB.
func peakRSS(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
