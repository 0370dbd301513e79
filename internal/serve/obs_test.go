package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distcolor"
	"distcolor/internal/obs"
)

// parseExposition is a minimal Prometheus text-format (0.0.4) parser: it
// validates the line grammar the scrapers rely on — every sample belongs to
// a family declared by a preceding # TYPE line (histograms via their
// _bucket/_sum/_count suffixes), values parse as floats — and returns the
// samples keyed by their full series string.
func parseExposition(t *testing.T, body string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			// free text; nothing to validate beyond the prefix
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
		case line == "":
			t.Fatalf("line %d: empty line in exposition", ln+1)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value separator in %q", ln+1, line)
			}
			series, valStr := line[:sp], line[sp+1:]
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
			name := series
			if i := strings.IndexByte(series, '{'); i >= 0 {
				name = series[:i]
				if !strings.HasSuffix(series, "}") {
					t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
				}
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); b != name && types[b] == "histogram" {
					base = b
					break
				}
			}
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q has no preceding TYPE declaration", ln+1, series)
			}
			if _, dup := samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			samples[series] = val
		}
	}
	return types, samples
}

func scrapeMetrics(t *testing.T, url string) (map[string]string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(raw))
}

// TestMetricsExposition runs one job and checks GET /metrics is valid
// exposition format carrying the serving tier's whole catalog with the
// values the workload implies.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"gen": "grid:8x8", "algo": "delta"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	if jj := decode[jobJSON](t, raw); jj.Status != StatusDone {
		t.Fatalf("job ended %q: %s", jj.Status, raw)
	}

	types, samples := scrapeMetrics(t, ts.URL)
	wantTypes := map[string]string{
		"distcolor_jobs_total":                  "counter",
		"distcolor_jobs_enqueued_total":         "counter",
		"distcolor_jobs_coalesced_total":        "counter",
		"distcolor_jobs_rejected_total":         "counter",
		"distcolor_jobs_coalesced_ratio":        "gauge",
		"distcolor_job_seconds":                 "histogram",
		"distcolor_queue_depth":                 "gauge",
		"distcolor_queue_capacity":              "gauge",
		"distcolor_workers":                     "gauge",
		"distcolor_workers_busy":                "gauge",
		"distcolor_graph_store_graphs":          "gauge",
		"distcolor_graph_store_weight_used":     "gauge",
		"distcolor_graph_store_weight_capacity": "gauge",
		"distcolor_graph_store_hits_total":      "counter",
		"distcolor_graph_store_misses_total":    "counter",
		"distcolor_graph_store_evictions_total": "counter",
		"distcolor_store_spill_drops_total":     "counter",
		"distcolor_engine_rounds_total":         "counter",
		"distcolor_engine_messages_total":       "counter",
		"distcolor_engine_shard_imbalance":      "gauge",
		"distcolor_http_requests_total":         "counter",
		"distcolor_http_request_seconds":        "histogram",
	}
	for name, kind := range wantTypes {
		if got := types[name]; got != kind {
			t.Errorf("metric %s: type %q, want %q", name, got, kind)
		}
	}
	wantVals := map[string]float64{
		`distcolor_jobs_total{status="done"}`:                                1,
		"distcolor_jobs_enqueued_total":                                      1,
		"distcolor_jobs_coalesced_total":                                     0,
		"distcolor_workers":                                                  2,
		"distcolor_graph_store_graphs":                                       1,
		"distcolor_graph_store_misses_total":                                 1, // the gen-spec upload generated once
		"distcolor_job_seconds_count":                                        1,
		`distcolor_http_requests_total{code="202",endpoint="POST /v1/jobs"}`: 1,
		`distcolor_http_request_seconds_count{endpoint="POST /v1/jobs"}`:     1,
	}
	for series, want := range wantVals {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	if samples["distcolor_engine_rounds_total"] <= 0 {
		t.Errorf("engine rounds total = %v, want > 0 after a completed job",
			samples["distcolor_engine_rounds_total"])
	}
	// Histogram buckets are cumulative and the +Inf bucket equals _count.
	var prev float64
	for i := 0; i < obs.HistogramBuckets; i++ {
		bound := obs.HistogramBase * float64(int64(1)<<uint(i))
		key := fmt.Sprintf(`distcolor_job_seconds_bucket{le="%s"}`,
			strconv.FormatFloat(bound, 'g', -1, 64))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v below predecessor %v (not cumulative)", key, v, prev)
		}
		prev = v
	}
	if inf := samples[`distcolor_job_seconds_bucket{le="+Inf"}`]; inf != samples["distcolor_job_seconds_count"] {
		t.Errorf("+Inf bucket %v != count %v", inf, samples["distcolor_job_seconds_count"])
	}
}

// TestTraceEndpoint checks GET /v1/jobs/{id}/trace across the lifecycle:
// 409 while queued or running, 200 with a report matching the job's own
// phase accounting once done, 409 for a job cancelled before it ran, 404
// for unknown IDs.
func TestTraceEndpoint(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	s.beforeRun = func(*Job) { <-release }
	defer once.Do(func() { close(release) })

	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs",
		map[string]any{"gen": "grid:10x10", "algo": "delta"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	jj := decode[jobJSON](t, raw)
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID+"/trace", nil); code != http.StatusConflict {
		t.Fatalf("trace of unfinished job: status %d, want 409", code)
	}

	// A second job sits in the queue; cancel it there — it never executes,
	// so it is terminal with no trace.
	waitForPickup(t, s)
	code, raw = doJSON(t, "POST", ts.URL+"/v1/jobs",
		map[string]any{"gen": "grid:10x10", "algo": "delta", "seed": 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d: %s", code, raw)
	}
	queued := decode[jobJSON](t, raw)
	if code, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	if code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+queued.ID+"/trace", nil); code != http.StatusConflict {
		t.Fatalf("trace of never-run job: status %d, want 409", code)
	}

	once.Do(func() { close(release) })
	final := pollUntilTerminal(t, ts, jj.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %q", final.Status)
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", code, raw)
	}
	rep := decode[distcolor.TraceReport](t, raw)
	if rep.Algorithm != "delta" || rep.Rounds != final.Rounds {
		t.Fatalf("trace (algo=%s rounds=%d) disagrees with job (rounds=%d)",
			rep.Algorithm, rep.Rounds, final.Rounds)
	}
	if len(rep.Phases) != len(final.Phases) {
		t.Fatalf("trace has %d phases, job has %d", len(rep.Phases), len(final.Phases))
	}
	for i, p := range rep.Phases {
		if p.Phase != final.Phases[i].Name || p.Rounds != final.Phases[i].Rounds {
			t.Errorf("phase %d: trace (%s,%d) vs job (%s,%d)",
				i, p.Phase, p.Rounds, final.Phases[i].Name, final.Phases[i].Rounds)
		}
	}

	if code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/j999/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job: status %d, want 404", code)
	}
}

// syncBuffer is an io.Writer safe for the concurrent request- and
// worker-goroutine writes a shared slog handler performs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDThreadsThroughLogs submits a job through the middleware and
// checks the structured log: the HTTP line and every lifecycle event of the
// job it created carry the same request ID.
func TestRequestIDThreadsThroughLogs(t *testing.T) {
	buf := &syncBuffer{}
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(buf, nil)),
	})
	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"gen": "path:40", "algo": "planar6"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}

	// The worker logs "job finished" after the waiter is released; poll
	// briefly so the assertion does not race it.
	want := []string{"job enqueued", "job started", "job finished", "http request"}
	deadline := time.After(5 * time.Second)
	var events map[string]map[string]any
	for {
		events = map[string]map[string]any{}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var e map[string]any
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("non-JSON log line %q: %v", line, err)
			}
			if msg, _ := e["msg"].(string); msg != "" {
				events[msg] = e
			}
		}
		complete := true
		for _, m := range want {
			if events[m] == nil {
				complete = false
			}
		}
		if complete {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("log never saw all of %v; got %s", want, buf.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	reqID, _ := events["job enqueued"]["req"].(string)
	if reqID == "" {
		t.Fatalf("job enqueued event carries no request ID: %v", events["job enqueued"])
	}
	for _, msg := range want {
		if got, _ := events[msg]["req"].(string); got != reqID {
			t.Errorf("%q event has req %q, want %q", msg, got, reqID)
		}
	}
	if ep, _ := events["http request"]["endpoint"].(string); ep != "POST /v1/jobs" {
		t.Errorf("http request endpoint = %q, want the mux pattern", ep)
	}
}

// TestConcurrentScrape hammers /metrics and /v1/stats while jobs run; under
// -race it proves scraping never tears the instruments.
func TestConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/v1/stats"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	var jobs sync.WaitGroup
	for i := 0; i < 4; i++ {
		jobs.Add(1)
		go func(worker int) {
			defer jobs.Done()
			for k := 0; k < 4; k++ {
				code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
					map[string]any{"gen": "path:60", "algo": "planar6", "seed": worker*10 + k})
				if code != http.StatusAccepted {
					t.Errorf("submit: status %d: %s", code, raw)
					return
				}
			}
		}(i)
	}
	jobs.Wait()
	close(stop)
	wg.Wait()
	// A final scrape still parses and shows all 16 jobs accounted for.
	_, samples := scrapeMetrics(t, ts.URL)
	if done := samples[`distcolor_jobs_total{status="done"}`]; done != 16 {
		t.Fatalf("done jobs = %v, want 16", done)
	}
}

// TestCancelRunningJobCountedOnce pins the cancelled-job accounting: a
// running job cancelled twice over HTTP lands in the stats exactly once,
// through the recordTerminal choke point.
func TestCancelRunningJobCountedOnce(t *testing.T) {
	started := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1})
	var once sync.Once
	s.beforeRun = func(*Job) { once.Do(func() { close(started) }) }

	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", slowJobBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	jj := decode[jobJSON](t, raw)
	<-started
	for i := 0; i < 2; i++ { // double DELETE: second must be a no-op
		if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+jj.ID, nil); code != http.StatusOK {
			t.Fatalf("delete %d: status %d", i, code)
		}
	}
	if final := pollUntilTerminal(t, ts, jj.ID); final.Status != StatusCancelled {
		t.Fatalf("job ended %q", final.Status)
	}
	_, raw = doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	var stats struct {
		Jobs Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.JobsCancelled != 1 || stats.Jobs.JobsDone != 0 || stats.Jobs.JobsFailed != 0 {
		t.Fatalf("cancelled running job counted wrong: %+v", stats.Jobs)
	}
	_, samples := scrapeMetrics(t, ts.URL)
	if got := samples[`distcolor_jobs_total{status="cancelled"}`]; got != 1 {
		t.Fatalf("metrics report %v cancelled jobs, want 1", got)
	}
}

// latencyWindow was the sliding-window size of the retired sort-on-snapshot
// latency estimator. It survives as the reference scale for the percentile
// agreement tests: the histogram path must agree with a nearest-rank sort
// over a window of exactly this size to within one log₂ bucket.
const latencyWindow = 2048

// percentile returns the p-th percentile (nearest-rank) of sorted samples.
// It is the exact-sort reference the histogram quantiles are tested
// against (agreement within one bucket on windows up to latencyWindow); no
// serving path sorts.
func percentile(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// TestPercentileNearestRank is the table test for the legacy nearest-rank
// reference at the window sizes the histogram agreement test leans on.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	window := make([]time.Duration, latencyWindow)
	for i := range window {
		window[i] = ms(i + 1)
	}
	cases := []struct {
		sorted []time.Duration
		p      int
		want   time.Duration
	}{
		{[]time.Duration{ms(5)}, 1, ms(5)},
		{[]time.Duration{ms(5)}, 50, ms(5)},
		{[]time.Duration{ms(5)}, 99, ms(5)},
		{[]time.Duration{ms(10), ms(20)}, 50, ms(10)},
		{[]time.Duration{ms(10), ms(20)}, 99, ms(20)},
		{window, 1, ms(21)},
		{window, 50, ms(1024)},
		{window, 99, ms(2028)},
		{window, 100, ms(latencyWindow)},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%d) = %s, want %s", len(c.sorted), c.p, got, c.want)
		}
	}
}

// TestHistogramAgreesWithLegacyPercentile feeds one full legacy window of
// latencies to both estimators: the histogram quantile must land in the
// log₂ bucket containing the exact nearest-rank value — i.e. within one
// bucket, never below it and less than 2× above.
func TestHistogramAgreesWithLegacyPercentile(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	h := &obs.Histogram{}
	samples := make([]time.Duration, latencyWindow)
	for i := range samples {
		d := time.Microsecond + time.Duration(rng.Int64N(int64(2*time.Second)))
		samples[i] = d
		h.Observe(d.Seconds())
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []int{1, 50, 90, 99, 100} {
		exact := percentile(samples, p).Seconds()
		got := h.Quantile(p)
		if got < exact || got >= 2*exact {
			t.Errorf("p%d: histogram %g outside the bucket of exact %g", p, got, exact)
		}
	}
}
