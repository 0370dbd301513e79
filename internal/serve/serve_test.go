package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/seqcolor"
	"distcolor/internal/serve/runcfg"
)

// newTestServer starts an httptest server over a fresh Server.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if s, ok := body.(string); ok {
		rd = strings.NewReader(s)
	} else if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return v
}

// uploadEdgeList posts g in edge-list text form and returns the graph ID.
func uploadEdgeList(t *testing.T, ts *httptest.Server, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, raw)
	}
	gj := decode[graphJSON](t, raw)
	if gj.N != g.N() || gj.M != g.M() {
		t.Fatalf("upload echoed n=%d m=%d, want n=%d m=%d", gj.N, gj.M, g.N(), g.M())
	}
	return gj.ID
}

func TestUploadJobColorsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g, err := runcfg.Generate("apollonian:300", 7)
	if err != nil {
		t.Fatal(err)
	}
	id := uploadEdgeList(t, ts, g)

	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"graph": id, "algo": "planar6", "seed": 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	jj := decode[jobJSON](t, raw)
	if jj.Status != StatusDone {
		t.Fatalf("wait=true returned status %q: %s", jj.Status, raw)
	}
	if !jj.Verified || jj.Colors == 0 || jj.Colors > 6 {
		t.Fatalf("planar6 job: verified=%v colors=%d", jj.Verified, jj.Colors)
	}

	// Status endpoint agrees.
	code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get job: status %d: %s", code, raw)
	}
	if got := decode[jobJSON](t, raw); got.Status != StatusDone || got.Colors != jj.Colors {
		t.Fatalf("job view mismatch: %+v vs %+v", got, jj)
	}

	// Full assignment is a proper 6-list-coloring of the uploaded graph.
	code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID+"/colors", nil)
	if code != http.StatusOK {
		t.Fatalf("get colors: status %d: %s", code, raw)
	}
	colors := decode[struct {
		Colors []int `json:"colors"`
	}](t, raw).Colors
	if len(colors) != g.N() {
		t.Fatalf("got %d colors for n=%d", len(colors), g.N())
	}
	if err := seqcolor.Verify(g, colors, seqcolor.Lists{}); err != nil {
		t.Fatalf("served coloring invalid: %v", err)
	}
}

func TestGenSpecUploadDedupes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, raw := doJSON(t, "POST", ts.URL+"/v1/graphs", uploadRequest{Gen: "apollonian:500", Seed: 9})
	if code != http.StatusCreated {
		t.Fatalf("status %d: %s", code, raw)
	}
	first := decode[graphJSON](t, raw)
	if first.Cached {
		t.Fatal("first upload reported cached")
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v1/graphs", uploadRequest{Gen: "apollonian:500", Seed: 9})
	if code != http.StatusCreated {
		t.Fatalf("status %d: %s", code, raw)
	}
	second := decode[graphJSON](t, raw)
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("re-upload not deduplicated: %+v vs %+v", second, first)
	}
	// A different seed is a different graph.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/graphs", uploadRequest{Gen: "apollonian:500", Seed: 10})
	if code != http.StatusCreated {
		t.Fatalf("status %d: %s", code, raw)
	}
	if third := decode[graphJSON](t, raw); third.ID == first.ID {
		t.Fatal("different seed deduplicated onto same graph")
	}
}

func TestBatchJobsAndCoalescing(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	batch := []map[string]any{
		{"gen": "apollonian:200", "gen_seed": 1, "algo": "planar6", "seed": 5},
		{"gen": "apollonian:200", "gen_seed": 1, "algo": "arboricity", "a": 3, "seed": 5},
		{"gen": "apollonian:200", "gen_seed": 1, "algo": "planar6", "seed": 5}, // dup of [0]
	}
	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true", batch)
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	views := decode[[]jobJSON](t, raw)
	if len(views) != 3 {
		t.Fatalf("got %d views, want 3", len(views))
	}
	for i, v := range views {
		if v.Status != StatusDone {
			t.Fatalf("batch job %d status %q: %s", i, v.Status, raw)
		}
	}
	if views[0].ID == views[1].ID {
		t.Fatal("distinct algos coalesced onto one job")
	}
	if views[2].ID != views[0].ID || !views[2].Coalesced {
		t.Fatalf("identical request not coalesced: %+v vs %+v", views[2], views[0])
	}
	if views[0].Graph != views[1].Graph {
		t.Fatal("same inline gen spec resolved to different graph IDs")
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gid := uploadEdgeList(t, ts, gen.Cycle(10))

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown algo", map[string]any{"graph": gid, "algo": "quantum"}, http.StatusBadRequest},
		{"malformed body", `{"graph": "g1", "algo"`, http.StatusBadRequest},
		{"unknown field", `{"graph": "g1", "algo": "planar6", "bogus": 1}`, http.StatusBadRequest},
		{"unknown graph", map[string]any{"graph": "g999", "algo": "planar6"}, http.StatusNotFound},
		{"graph and gen", map[string]any{"graph": gid, "gen": "path:5", "algo": "planar6"}, http.StatusBadRequest},
		{"no graph", map[string]any{"algo": "planar6"}, http.StatusBadRequest},
		{"bad sparse d", map[string]any{"graph": gid, "algo": "sparse", "d": 1}, http.StatusBadRequest},
		{"empty batch", `[]`, http.StatusBadRequest},
		{"bad gen spec", map[string]any{"gen": "nosuch:4", "algo": "planar6"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, raw)
		}
		if !strings.Contains(string(raw), "error") {
			t.Errorf("%s: no error message in %s", tc.name, raw)
		}
	}

	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/j999/colors", nil); code != http.StatusNotFound {
		t.Errorf("unknown job colors: status %d", code)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/graphs", `{"seed": 3}`); code != http.StatusBadRequest {
		t.Errorf("upload without gen: status %d: %s", code, raw)
	}
	// Unknown fields in an upload body (e.g. the jobs API's "gen_seed"
	// instead of this endpoint's "seed") must fail loudly, not silently
	// generate a different graph than the client named.
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/graphs", `{"gen": "path:5", "gen_seed": 42}`); code != http.StatusBadRequest {
		t.Errorf("upload with unknown field: status %d: %s", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("3\n0 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range edge list: status %d", resp.StatusCode)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	s.beforeRun = func(*Job) { <-release }
	defer once.Do(func() { close(release) })

	submit := func(seed int) (int, jobJSON, []byte) {
		code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs",
			map[string]any{"gen": "path:40", "algo": "planar6", "seed": seed})
		var jj jobJSON
		if code == http.StatusAccepted {
			jj = decode[jobJSON](t, raw)
		}
		return code, jj, raw
	}

	// First job occupies the single worker (blocked in beforeRun)...
	code, first, raw := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", code, raw)
	}
	waitForPickup(t, s)
	// ...two more fill the queue...
	for seed := 2; seed <= 3; seed++ {
		if code, _, raw := submit(seed); code != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", seed, code, raw)
		}
	}
	// ...and the next is rejected with 429, as is a whole batch (atomically).
	code, _, raw = submit(4)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 4: status %d (want 429): %s", code, raw)
	}
	depthBefore := s.sched.QueueDepth()
	code, raw = doJSON(t, "POST", ts.URL+"/v1/jobs", []map[string]any{
		{"gen": "path:40", "algo": "planar6", "seed": 5},
		{"gen": "path:40", "algo": "planar6", "seed": 6},
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch over depth: status %d: %s", code, raw)
	}
	if d := s.sched.QueueDepth(); d != depthBefore {
		t.Fatalf("rejected batch half-enqueued: depth %d → %d", depthBefore, d)
	}
	// A batch larger than the whole queue can never be admitted: 413, not
	// the retryable 429.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/jobs", []map[string]any{
		{"gen": "path:40", "algo": "planar6", "seed": 7},
		{"gen": "path:40", "algo": "planar6", "seed": 8},
		{"gen": "path:40", "algo": "planar6", "seed": 9},
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch over queue capacity: status %d (want 413): %s", code, raw)
	}
	// A coalesced duplicate of a queued job is NOT new queue load: accepted.
	code, dup, raw := submit(1)
	if code != http.StatusAccepted || !dup.Coalesced || dup.ID != first.ID {
		t.Fatalf("duplicate of queued job: status %d coalesced=%v id=%s (want %s): %s",
			code, dup.Coalesced, dup.ID, first.ID, raw)
	}
	// Colors of a queued job are a 409.
	code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID+"/colors", nil)
	if code != http.StatusConflict {
		t.Fatalf("colors before done: status %d: %s", code, raw)
	}

	once.Do(func() { close(release) })
	deadline := time.After(30 * time.Second)
	for seed := 1; seed <= 3; seed++ {
		code, jj, raw := submit(seed) // coalesces onto the finished/running job
		if code != http.StatusAccepted {
			t.Fatalf("resubmit %d: status %d: %s", seed, code, raw)
		}
		for jj.Status != StatusDone {
			select {
			case <-deadline:
				t.Fatalf("job %s stuck in %s", jj.ID, jj.Status)
			case <-time.After(10 * time.Millisecond):
			}
			code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID, nil)
			if code != http.StatusOK {
				t.Fatalf("poll: status %d: %s", code, raw)
			}
			jj = decode[jobJSON](t, raw)
		}
	}
}

// waitForPickup blocks until the scheduler queue is empty and a worker has
// picked up the in-flight job.
func waitForPickup(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for s.sched.QueueDepth() != 0 {
		select {
		case <-deadline:
			t.Fatal("worker never picked up the job")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestParallelIdenticalJobsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	g, err := runcfg.Generate("apollonian:250", 3)
	if err != nil {
		t.Fatal(err)
	}
	id := uploadEdgeList(t, ts, g)

	// 8 parallel submissions with fresh=true force 8 independent executions
	// (no coalescing) racing on 4 workers; determinism demands identical
	// colorings from every one of them.
	const parallel = 8
	colorings := make([][]int, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{
				"graph": id, "algo": "planar6", "seed": 42, "fresh": true,
			})
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=true&timeout=60s", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var jj jobJSON
			if err := json.Unmarshal(raw, &jj); err != nil {
				errs[i] = fmt.Errorf("decoding %s: %w", raw, err)
				return
			}
			if jj.Status != StatusDone {
				errs[i] = fmt.Errorf("job %s finished as %q (%s)", jj.ID, jj.Status, jj.Error)
				return
			}
			resp, err = http.Get(ts.URL + "/v1/jobs/" + jj.ID + "/colors")
			if err != nil {
				errs[i] = err
				return
			}
			raw, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			var cols struct {
				Colors []int `json:"colors"`
			}
			if err := json.Unmarshal(raw, &cols); err != nil {
				errs[i] = fmt.Errorf("decoding colors %s: %w", raw, err)
				return
			}
			colorings[i] = cols.Colors
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i := 1; i < parallel; i++ {
		if !reflect.DeepEqual(colorings[0], colorings[i]) {
			t.Fatalf("parallel run %d returned a different coloring", i)
		}
	}
	if err := seqcolor.Verify(g, colorings[0], seqcolor.Lists{}); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, raw := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(raw), "true") {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"gen": "apollonian:100", "algo": "planar6"})
	if code != http.StatusAccepted {
		t.Fatalf("job: %d %s", code, raw)
	}
	code, raw = doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, raw)
	}
	var stats struct {
		Jobs   Snapshot `json:"jobs"`
		Graphs struct {
			Cached int `json:"cached"`
		} `json:"graphs"`
		Workers int `json:"workers"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("decoding stats %s: %v", raw, err)
	}
	if stats.Jobs.JobsDone != 1 || stats.Graphs.Cached != 1 || stats.Workers != 2 {
		t.Fatalf("unexpected stats: %s", raw)
	}
	if stats.Jobs.LatencyP50Ms <= 0 || stats.Jobs.LatencyP99Ms < stats.Jobs.LatencyP50Ms {
		t.Fatalf("latency percentiles inconsistent: %s", raw)
	}
}

func TestGraphStoreLRU(t *testing.T) {
	small := gen.Path(10) // weight 10 + 2*9 = 28 (CSR; no mirror built yet)
	store := NewGraphStore(3 * graphWeight(small))
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := store.Add(gen.Path(10), Image{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if store.Len() != 3 || store.Evicted() != 1 {
		t.Fatalf("len=%d evicted=%d, want 3/1", store.Len(), store.Evicted())
	}
	if _, _, ok := store.Resolve(ids[0]); ok {
		t.Fatal("oldest graph survived over-capacity insert")
	}
	// Touching ids[1] makes ids[2] the eviction victim of the next insert.
	if _, _, ok := store.Resolve(ids[1]); !ok {
		t.Fatal("ids[1] missing")
	}
	if _, err := store.Add(gen.Path(10), Image{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Resolve(ids[1]); !ok {
		t.Fatal("recently-used graph evicted before LRU victim")
	}
	if _, _, ok := store.Resolve(ids[2]); ok {
		t.Fatal("LRU victim survived")
	}
	// A graph heavier than the whole store is rejected outright.
	if _, err := store.Add(gen.Path(1000), Image{}); err == nil {
		t.Fatal("over-capacity graph accepted")
	}
}

// TestUploadOverCapacityFailsEarly checks a text upload heavier than the
// whole store fails while it is parsed, with the store's own message: at
// the header, before anything is allocated for the declared count, and at
// the edge that carries n+2m past the capacity.
func TestUploadOverCapacityFailsEarly(t *testing.T) {
	_, ts := newTestServer(t, Options{GraphCacheWeight: 1000})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, decode[errorJSON](t, raw).Error
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	code, msg := post("4000000\n0 1\n")
	runtime.ReadMemStats(&ms)
	if want := "serve: graph weight 4000000 exceeds store capacity 1000"; code != http.StatusBadRequest || msg != want {
		t.Fatalf("header past capacity: %d %q, want 400 %q", code, msg, want)
	}
	if got := ms.TotalAlloc - before; got >= 1<<20 {
		t.Fatalf("rejecting a 4e6-vertex header allocated %d bytes", got)
	}

	var buf bytes.Buffer
	if _, err := gen.Path(600).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// n=600: the 201st edge takes n+2m to 1002.
	code, msg = post(buf.String())
	if want := "serve: graph weight 1002 exceeds store capacity 1000"; code != http.StatusBadRequest || msg != want {
		t.Fatalf("edges past capacity: %d %q, want 400 %q", code, msg, want)
	}
}

func TestSchedulerBatchAtomicity(t *testing.T) {
	block := make(chan struct{})
	sched := NewScheduler(1, 2, func(*Job) { <-block })
	defer func() { close(block); sched.Close() }()
	mk := func() *Job { return &Job{done: make(chan struct{})} }
	if err := sched.Enqueue(mk()); err != nil { // taken by the worker
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for sched.QueueDepth() != 0 {
		select {
		case <-deadline:
			t.Fatal("worker never started")
		case <-time.After(time.Millisecond):
		}
	}
	if err := sched.Enqueue(mk()); err != nil {
		t.Fatal(err)
	}
	if err := sched.Enqueue(mk(), mk()); err != ErrQueueFull {
		t.Fatalf("batch of 2 into 1 free slot: %v, want ErrQueueFull", err)
	}
	if d := sched.QueueDepth(); d != 1 {
		t.Fatalf("rejected batch changed depth to %d", d)
	}
	if err := sched.Enqueue(mk()); err != nil {
		t.Fatalf("single into last slot: %v", err)
	}
	if err := sched.Enqueue(mk()); err != ErrQueueFull {
		t.Fatalf("enqueue into full queue: %v", err)
	}
	if err := sched.Enqueue(mk(), mk(), mk()); err != ErrBatchTooLarge {
		t.Fatalf("batch of 3 into depth-2 queue: %v, want ErrBatchTooLarge", err)
	}
}
