// Package serve is the distcolor serving layer: a job engine (bounded
// worker scheduler, LRU graph store, deterministic job coalescing, serving
// stats) behind an HTTP JSON API, exposed by cmd/distcolor-serve.
//
// The engine exploits two properties of the underlying algorithms:
//
//   - Parsing and generation dominate small-job latency, so graphs are
//     parsed into CSR exactly once and cached in a size-bounded LRU
//     (GraphStore); jobs reference graphs by ID.
//   - Every algorithm is deterministic in (graph, config, seed), so
//     identical requests are one job: concurrent duplicates coalesce onto
//     the same execution and later duplicates are answered from the
//     retained result, unless the request sets "fresh".
//
// Backpressure is explicit: the scheduler's queue is bounded and a batch
// that does not fit is rejected whole with 429, never half-enqueued.
//
// Every job owns a context threaded into the coloring run, giving the
// server real cancellation: DELETE /v1/jobs/{id} stops a queued or running
// job within one LOCAL round, a ?wait=true client disconnecting aborts the
// unshared jobs it submitted, and Options.JobTimeout bounds every
// execution. Large results stream out in chunks (GET /v1/jobs/{id}/colors)
// instead of buffering whole.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"distcolor"
	"distcolor/internal/cluster"
	"distcolor/internal/graph"
	"distcolor/internal/obs"
	"distcolor/internal/serve/runcfg"
)

// Options configure a Server. The zero value means: GOMAXPROCS workers,
// queue depth 256, a 64M-entry graph store, 4096 retained jobs, 64 MiB
// upload cap.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting to run (default 256); batches that
	// would exceed it are rejected with 429.
	QueueDepth int
	// GraphCacheWeight bounds the graph store's resident heap weight in
	// adjacency entries: n + 2m per cached graph, plus another 2m once the
	// engine's delivery mirror is materialized by a first message-plane job
	// (default 64M entries ≈ 256 MiB of int32). mmap'd graphs charge only
	// their mirror — their CSR pages are file-backed and OS-reclaimable.
	GraphCacheWeight int64
	// RetainJobs bounds retained terminal jobs (default 4096).
	RetainJobs int
	// MaxUploadBytes bounds a graph-upload body (default 64 MiB).
	MaxUploadBytes int64
	// SpillDir, when non-empty, turns store eviction into spilling: cold
	// graphs keep (or gain) a .dcsr image under this directory and are
	// re-admitted by page map instead of a re-parse or re-generate. It also
	// enables application/x-dcsr binary uploads and external-memory
	// conversion of oversized text uploads.
	SpillDir string
	// SpillMaxBytes bounds the .dcsr bytes kept under SpillDir (default
	// 4 GiB when spilling is on; negative = unbounded).
	SpillMaxBytes int64
	// ConvertUploadBytes: a text upload whose Content-Length exceeds this is
	// spooled and converted to .dcsr by the external-memory builder instead
	// of being parsed into the heap (default 16 MiB; needs SpillDir;
	// negative disables the conversion path).
	ConvertUploadBytes int64
	// ConvertMemBudget caps the converter's neighbor slab in bytes
	// (default 256 MiB).
	ConvertMemBudget int64
	// JobTimeout, when positive, is the per-job execution deadline: a run
	// exceeding it is aborted (within one LOCAL round) and reported as
	// failed with a deadline error. Queue wait does not count. 0 = none.
	JobTimeout time.Duration
	// Logger receives structured request and job-lifecycle events, each
	// carrying the request ID that started the work. nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
	// own mux. Off by default: the profiler is a diagnostic surface, not
	// part of the public API.
	EnablePprof bool
	// TraceSample is the head-sampling probability for new traces: 0 means
	// the default of 1.0 (sample everything), negative samples nothing.
	// Root spans are always flight-recorded regardless of the decision, so
	// GET /debug/flight stays useful even at -trace-sample 0.
	TraceSample float64
	// TraceRing bounds the span flight recorder (default 4096 spans).
	TraceRing int
	// TraceSeed, when non-zero, makes trace/span/request IDs a pure
	// function of allocation order — deterministic tests and exports.
	TraceSeed uint64
	// Cluster, when non-nil, joins this replica to a serving fleet: requests
	// for fleet-deterministic graphs route to their consistent-hash owner
	// (see internal/cluster). nil serves standalone. An invalid config
	// panics — a replica that cannot join its fleet must not come up
	// half-configured (same contract as NewGraphStore).
	Cluster *cluster.Config
	// QuotaRPS, when positive, enforces a per-client token-bucket rate on
	// submissions and uploads at the ingress replica (key: the
	// X-Distcolor-Client header, else the remote host). 0 disables quotas.
	QuotaRPS float64
	// QuotaBurst is the quota bucket size (default max(1, QuotaRPS)).
	QuotaBurst float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.GraphCacheWeight <= 0 {
		o.GraphCacheWeight = 64 << 20
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 4096
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.SpillDir != "" {
		if o.SpillMaxBytes == 0 {
			o.SpillMaxBytes = 4 << 30
		}
		if o.ConvertUploadBytes == 0 {
			o.ConvertUploadBytes = 16 << 20
		}
		if o.ConvertMemBudget <= 0 {
			o.ConvertMemBudget = graph.DefaultConvertMemBudget
		}
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// Server is the HTTP serving layer. Create with New, close with Close.
type Server struct {
	opts    Options
	store   *GraphStore
	jobs    *JobRegistry
	sched   *Scheduler
	stats   *Stats
	metrics *serveMetrics
	log     *slog.Logger
	mux     *http.ServeMux
	tracer  *obs.Tracer
	cluster *cluster.Node  // nil when serving standalone
	quota   *cluster.Quota // nil when quotas are off

	// submitMu makes intern→enqueue→rollback one atomic step (see
	// submitJobs); without it a 429 rollback could release a job another
	// request just coalesced onto.
	submitMu sync.Mutex

	// beforeRun, when non-nil, runs in the worker just before a job
	// executes. Tests use it to hold workers and fill the queue
	// deterministically.
	beforeRun func(*Job)

	// noObs disables per-request observation (middleware timing, request
	// IDs) and per-job round tracing, leaving only the always-on stats
	// counters. It exists so the throughput benchmark can measure the
	// pre-instrumentation baseline next to the instrumented default; it is
	// not a supported production mode.
	noObs bool
}

// New builds a ready-to-serve Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	metrics := newServeMetrics()
	s := &Server{
		opts:    opts,
		store:   NewGraphStore(opts.GraphCacheWeight),
		jobs:    NewJobRegistry(opts.RetainJobs),
		stats:   newStats(metrics.reg),
		metrics: metrics,
		log:     opts.Logger,
		mux:     http.NewServeMux(),
		tracer: obs.NewTracer(obs.TracerOptions{
			SampleRate: opts.TraceSample,
			RingSize:   opts.TraceRing,
			Seed:       opts.TraceSeed,
		}),
	}
	s.store.log = opts.Logger
	if opts.SpillDir != "" {
		// Same contract as an invalid cluster config: a replica that cannot
		// bring up its configured spill tier must not come up without it.
		if err := s.store.EnableSpill(opts.SpillDir, opts.SpillMaxBytes); err != nil {
			panic(err.Error())
		}
	}
	s.sched = NewScheduler(opts.Workers, opts.QueueDepth, s.execute)
	if opts.Cluster != nil {
		cfg := *opts.Cluster
		if cfg.Logger == nil {
			cfg.Logger = opts.Logger
		}
		node, err := cluster.NewNode(cfg)
		if err != nil {
			panic("serve: " + err.Error())
		}
		s.cluster = node
	}
	if opts.QuotaRPS > 0 {
		s.quota = cluster.NewQuota(opts.QuotaRPS, opts.QuotaBurst)
	}
	metrics.wire(s)
	s.mux.HandleFunc("POST /v1/graphs", s.handleUploadGraph)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/colors", s.handleGetColors)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTraceSpans)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// reqIDKey carries the per-request ID through the request context.
type reqIDKey struct{}

// requestID returns the ID the middleware assigned this request ("" when
// observation is off — direct mux use in benchmarks).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the request log and
// metrics. Its explicit Flush keeps the streaming color handler's flusher
// visible through the wrapper (interface embedding alone would hide it).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP implements http.Handler: it assigns the request a globally
// unique ID, opens the request's root span — continuing an inbound W3C
// traceparent header when one arrives, minting a fresh trace otherwise —
// times the dispatch, and records (endpoint, code, latency) into the
// metrics registry and the structured log, every log record carrying both
// IDs for log↔trace correlation. The outbound traceparent header is set
// before dispatch so even error responses carry the trace identity back
// to the caller. The endpoint label is the mux pattern that matched
// ("GET /v1/jobs/{id}"), never the raw path, so cardinality stays bounded
// by the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil {
		// Stamp the executing replica. The forwarding proxy overwrites this
		// with the upstream's stamp, so the client always learns which
		// replica actually ran the request — the replica to poll for
		// GET /v1/jobs/{id} on the job it just submitted.
		w.Header().Set(cluster.ReplicaHeader, s.cluster.Self())
	}
	if s.noObs {
		s.mux.ServeHTTP(w, r)
		return
	}
	reqID := s.tracer.RequestID()
	inbound, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	root := s.tracer.StartRoot("HTTP", inbound)
	ctx := obs.ContextWithSpan(r.Context(), root)
	r = r.WithContext(context.WithValue(ctx, reqIDKey{}, reqID))
	w.Header().Set("Traceparent", root.Context().Traceparent())
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	endpoint := r.Pattern // set by the mux on this request during dispatch
	if endpoint == "" {
		endpoint = "unmatched"
	}
	root.SetName("HTTP " + endpoint)
	root.SetAttr("req", reqID)
	root.SetAttr("method", r.Method)
	root.SetAttr("path", r.URL.Path)
	root.SetAttr("code", strconv.Itoa(sw.code))
	root.End()
	var exemplar string
	if root.Sampled() {
		exemplar = root.Trace.String()
	}
	s.metrics.observeHTTP(endpoint, sw.code, elapsed.Seconds(), exemplar)
	s.log.Info("http request",
		"req", reqID, "trace", root.Trace.String(),
		"method", r.Method, "path", r.URL.Path,
		"endpoint", endpoint, "code", sw.code,
		"ms", float64(elapsed)/float64(time.Millisecond))
}

// Close stops the worker pool after draining already-accepted jobs, and the
// cluster node's background prober when clustered.
func (s *Server) Close() {
	s.sched.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// execute runs one job on a worker. Jobs cancelled while still queued are
// skipped (the canceller already terminalized them); running jobs observe
// their context — cancelled by DELETE, disconnect abort, or the per-job
// deadline — cooperatively, stopping within one LOCAL round.
func (s *Server) execute(j *Job) {
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	if !j.tryStart() {
		return
	}
	started := j.Snapshot()
	wait := started.Started.Sub(started.Enqueued)
	if !s.noObs {
		// Queue wait crosses goroutines (enqueue on the request goroutine,
		// start here on a worker), so the span is recorded retroactively from
		// the measured boundaries rather than held open across the hop.
		var exemplar string
		if j.span.Sampled() {
			exemplar = j.TraceID
		}
		s.metrics.queueWait.ObserveExemplar(wait.Seconds(), exemplar)
		s.tracer.Record(j.span, "queue.wait", started.Enqueued, started.Started,
			obs.Attr{Key: "job", Value: j.ID})
	}
	s.log.Info("job started", "req", j.ReqID, "trace", j.TraceID, "job", j.ID,
		"algo", j.Cfg.Algo, "graph", j.GraphID,
		"queue_ms", float64(wait)/float64(time.Millisecond))
	ctx := j.Context()
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	runSpan := s.tracer.StartChild(j.span, "job.run")
	runSpan.SetAttr("job", j.ID)
	runSpan.SetAttr("algo", j.Cfg.Algo)
	runSpan.SetAttr("graph", j.GraphID)
	var extra []distcolor.Option
	var tr *distcolor.RoundTrace
	if !s.noObs {
		tr = &distcolor.RoundTrace{}
		extra = append(extra, distcolor.WithTrace(tr))
	}
	res, err := runcfg.Run(ctx, j.g, j.Cfg, extra...)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("job deadline %s exceeded: %w", s.opts.JobTimeout, err)
	}
	if tr != nil {
		// Attach the trace before finish closes done: a waiter released by
		// Done can fetch /v1/jobs/{id}/trace immediately. Aborted runs keep
		// their partial trace — the rounds were executed and paid for.
		rep := tr.Report(j.Cfg.Algo)
		rep.TraceID = j.TraceID
		j.setTrace(rep)
		s.metrics.engineRounds.Add(int64(rep.Rounds))
		s.metrics.engineMessages.Add(int64(rep.Messages))
		if rep.ShardImbalance > 0 {
			s.metrics.shardImbalance.Set(rep.ShardImbalance)
		}
		runSpan.SetAttr("rounds", strconv.Itoa(rep.Rounds))
		runSpan.SetAttr("messages", strconv.Itoa(rep.Messages))
		runcfg.RecordEngineSpans(s.tracer, runSpan.Context(), rep)
	}
	runSpan.End()
	j.finish(res, err)
	s.jobs.markTerminal(j)
	s.recordTerminal(j)
	v := j.Snapshot()
	s.log.Info("job finished", "req", j.ReqID, "trace", j.TraceID, "job", j.ID,
		"status", string(v.Status), "err", v.Err,
		"run_ms", float64(v.Finished.Sub(v.Started))/float64(time.Millisecond))
}

// recordTerminal is the single entry point for terminal-status accounting:
// both the worker finishing a run and a cancel terminalizing a queued job
// land here, and the per-job CAS lets exactly one of them count the job.
// Queued-cancelled jobs never ran, so their recorded latency is pure queue
// wait — still the client-visible enqueue-to-terminal time.
func (s *Server) recordTerminal(j *Job) {
	if !j.accounted.CompareAndSwap(false, true) {
		return
	}
	v := j.Snapshot()
	var exemplar string
	if j.span.Sampled() {
		exemplar = j.TraceID
	}
	s.stats.jobFinished(v.Finished.Sub(v.Enqueued), v.Status, exemplar)
}

// ---- wire types ----

type errorJSON struct {
	Error string `json:"error"`
}

type graphJSON struct {
	ID     string `json:"id"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	MaxDeg int    `json:"maxdeg"`
	Cached bool   `json:"cached"`
	// Mapped marks a graph whose CSR is a page-mapped .dcsr image rather
	// than heap arrays (binary upload or external-memory conversion).
	Mapped bool `json:"mapped,omitempty"`
}

type uploadRequest struct {
	Gen  string `json:"gen"`
	Seed uint64 `json:"seed"`
}

// jobRequest is one job submission. Exactly one of Graph (an ID returned by
// POST /v1/graphs) or Gen (an inline generator spec, resolved through the
// same deduplicating store) names the graph.
type jobRequest struct {
	Graph   string `json:"graph,omitempty"`
	Gen     string `json:"gen,omitempty"`
	GenSeed uint64 `json:"gen_seed,omitempty"`
	runcfg.Config
	// Fresh bypasses result coalescing and forces a re-execution.
	Fresh bool `json:"fresh,omitempty"`
}

type phaseJSON struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
}

type jobJSON struct {
	ID        string      `json:"id"`
	Graph     string      `json:"graph"`
	Algo      string      `json:"algo"`
	Status    JobStatus   `json:"status"`
	Coalesced bool        `json:"coalesced,omitempty"`
	Error     string      `json:"error,omitempty"`
	Colors    int         `json:"colors_used,omitempty"`
	Rounds    int         `json:"rounds,omitempty"`
	Verified  bool        `json:"verified,omitempty"`
	Clique    []int       `json:"clique,omitempty"`
	Phases    []phaseJSON `json:"phases,omitempty"`
	QueueMs   float64     `json:"queue_ms,omitempty"`
	RunMs     float64     `json:"run_ms,omitempty"`
	TraceID   string      `json:"trace_id,omitempty"`
}

func (s *Server) jobView(j *Job, coalesced bool) jobJSON {
	v := j.Snapshot()
	out := jobJSON{
		ID:        j.ID,
		Graph:     j.GraphID,
		Algo:      j.Cfg.Algo,
		Status:    v.Status,
		Coalesced: coalesced,
		Error:     v.Err,
		TraceID:   j.TraceID,
	}
	if !v.Started.IsZero() {
		out.QueueMs = float64(v.Started.Sub(v.Enqueued)) / float64(time.Millisecond)
	}
	if !v.Finished.IsZero() && !v.Started.IsZero() {
		out.RunMs = float64(v.Finished.Sub(v.Started)) / float64(time.Millisecond)
	}
	if res := v.Result; res != nil {
		out.Colors = res.ColorsUsed
		out.Rounds = res.Rounds
		out.Verified = res.Verified
		out.Clique = res.Clique
		for _, p := range res.Phases {
			out.Phases = append(out.Phases, phaseJSON{Name: p.Name, Rounds: p.Rounds})
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// ---- handlers ----

// handleUploadGraph is POST /v1/graphs, the one way a graph enters the
// server. It picks the decoder once, from the Content-Type and the length:
//
//   - application/json: a {"gen": spec, "seed": n} generator spec, built
//     (or found) by the deduplicating store;
//   - application/x-dcsr (spill mode only): a binary .dcsr image, spooled
//     to the spill dir;
//   - anything else: an edge list in the graph.ReadEdgeList format, counted
//     into CSR as it streams in, within the store's capacity — unless it is
//     longer than ConvertUploadBytes (spill mode, known length), in which
//     case it is spooled and converted to .dcsr in bounded memory instead.
//
// Every .dcsr image, uploaded or converted, then takes the same open →
// verify → admit path (admitImage) and is served page-mapped.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admitQuota(w, r) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	var (
		id             string
		g              *graph.Graph
		cached, mapped bool
		err            error
	)
	switch ct := r.Header.Get("Content-Type"); {
	case strings.HasPrefix(ct, "application/json"):
		var raw []byte
		var req uploadRequest
		if raw, err = io.ReadAll(body); err != nil {
			err = fmt.Errorf("reading upload body: %w", err)
		} else if err = unmarshalStrict(raw, &req); err != nil {
			err = fmt.Errorf("bad JSON body: %w", err)
		} else if req.Gen == "" {
			err = errors.New("missing \"gen\" spec")
		} else if s.maybeForward(w, r, raw, specGraphID(specKeyFor(req.Gen, req.Seed))) {
			// A gen-spec upload materializes the graph on the replica that
			// owns its deterministic ID, so later jobs on that ID find it hot.
			return
		} else {
			id, g, cached, _, err = s.addSpec(req.Gen, req.Seed)
		}
	case strings.HasPrefix(ct, "application/x-dcsr"):
		id, g, mapped, err = s.admitImage(body, false)
	case s.opts.SpillDir != "" && s.opts.ConvertUploadBytes > 0 && r.ContentLength > s.opts.ConvertUploadBytes:
		// An edge list this large would cost more parsed on the heap (its
		// CSR plus an 8-byte-per-edge log) than mapped from a converted
		// image. Chunked uploads (ContentLength < 0) are parsed.
		id, g, mapped, err = s.admitImage(body, true)
	default:
		// The store's capacity bounds the parse, so a short body declaring a
		// huge graph fails before the reader allocates for it.
		var we *graph.WeightError
		if g, err = graph.ReadEdgeListWithin(body, s.store.cap); err == nil {
			id, err = s.store.Add(g, Image{})
		} else if errors.As(err, &we) {
			err = overCapacity(we.Weight, we.Limit)
		}
	}
	if err != nil {
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, graphJSON{
		ID: id, N: g.N(), M: g.M(), MaxDeg: g.MaxDegree(), Cached: cached, Mapped: mapped,
	})
}

// statusError pins the HTTP status of an error that errorStatus would
// otherwise report as 400: a missing resource or a server-side failure.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// errorStatus is the reply code for a failed request: 413 when reading the
// body ran past the upload cap, the pinned code of a statusError, and 400
// (the request was bad) otherwise.
func errorStatus(err error) int {
	var se *statusError
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &se):
		return se.code
	}
	return http.StatusBadRequest
}

// addSpec builds — or finds, deduplicated — the graph of a generator spec.
func (s *Server) addSpec(spec string, seed uint64) (id string, g *graph.Graph, cached bool, source string, err error) {
	return s.store.AddSpec(spec, seed, func() (*graph.Graph, error) {
		return runcfg.Generate(spec, seed)
	})
}

// admitImage brings a .dcsr image in from the network: body is spooled to
// the spill dir — as the image itself, or (convert) as an edge list that
// graph.ConvertEdgeList turns into one — then opened (page-mapped where the
// platform can), fully verified, since the O(1) mmap admission checks only
// the header and the bytes came from a client, and handed to the store,
// which owns the file from then on. On any error every file it created is
// removed.
func (s *Server) admitImage(body io.Reader, convert bool) (id string, g *graph.Graph, mapped bool, err error) {
	if s.store.SpillDir() == "" {
		return "", nil, false, errors.New(
			"binary graph upload requires the spill tier (start the server with -spill-dir)")
	}
	var path string
	var size int64
	if convert {
		path, size, err = s.convertUpload(body)
	} else {
		path, size, err = s.spool(body, "upload-*.dcsr")
	}
	if err != nil {
		return "", nil, false, err
	}
	defer func() {
		if err != nil {
			os.Remove(path)
		}
	}()
	mg, err := graph.OpenDCSR(path)
	if err != nil {
		return "", nil, false, err
	}
	if err = mg.Verify(); err == nil {
		id, err = s.store.Add(mg.Graph, Image{Path: path, Bytes: size, Mapped: mg.Mapped()})
	}
	if err != nil {
		mg.Close()
		return "", nil, false, err
	}
	return id, mg.Graph, mg.Mapped(), nil
}

// spool copies body into a fresh file under the spill dir, returning its
// path and size. On error nothing is left behind.
func (s *Server) spool(body io.Reader, pattern string) (path string, size int64, err error) {
	f, err := os.CreateTemp(s.store.SpillDir(), pattern)
	if err != nil {
		return "", 0, &statusError{http.StatusInternalServerError, fmt.Errorf("spooling upload: %w", err)}
	}
	size, err = io.Copy(f, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", 0, err
	}
	return f.Name(), size, nil
}

// convertUpload runs an edge-list body through the external-memory
// builder: the body is spooled next to the spill images (the converter
// scans it several times) and converted to a .dcsr file under the
// configured memory budget. Only the .dcsr file outlives the call.
func (s *Server) convertUpload(body io.Reader) (path string, size int64, err error) {
	edges, _, err := s.spool(body, "upload-*.edges")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(edges)
	out, err := os.CreateTemp(s.store.SpillDir(), "upload-*.dcsr")
	if err != nil {
		return "", 0, &statusError{http.StatusInternalServerError, fmt.Errorf("creating converted graph: %w", err)}
	}
	open := func() (io.ReadCloser, error) { return os.Open(edges) }
	stats, err := graph.ConvertEdgeList(open, out, s.opts.ConvertMemBudget)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out.Name())
		return "", 0, err
	}
	return out.Name(), stats.BytesWritten, nil
}

// handleSubmitJobs accepts one job object or a batch array of them. The
// batch is admitted atomically: if the fresh (non-coalesced) jobs do not
// all fit in the queue, nothing is enqueued and the reply is 429 with a
// Retry-After hint. With ?wait=true the handler blocks (up to ?timeout,
// default 30s) until every submitted job is terminal.
func (s *Server) handleSubmitJobs(w http.ResponseWriter, r *http.Request) {
	if !s.admitQuota(w, r) {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		writeError(w, errorStatus(err), "reading job body: %v", err)
		return
	}
	trimmed := bytes.TrimLeft(raw, " \t\r\n")
	batch := len(trimmed) > 0 && trimmed[0] == '['
	var reqs []jobRequest
	if batch {
		if err := unmarshalStrict(trimmed, &reqs); err != nil {
			writeError(w, http.StatusBadRequest, "bad job batch: %v", err)
			return
		}
		if len(reqs) == 0 {
			writeError(w, http.StatusBadRequest, "empty job batch")
			return
		}
	} else {
		var single jobRequest
		if err := unmarshalStrict(trimmed, &single); err != nil {
			writeError(w, http.StatusBadRequest, "bad job body: %v", err)
			return
		}
		reqs = []jobRequest{single}
	}
	// Route to the owning replica when the whole submission shares one
	// remote owner; the raw body is replayed verbatim, so forwarded and
	// local submissions are byte-identical requests.
	if s.maybeForwardJobs(w, r, raw, reqs) {
		return
	}
	s.submitJobs(w, r, reqs, batch)
}

// unmarshalStrict decodes JSON rejecting unknown fields (typos in algo
// parameters should fail loudly, not silently run with defaults) and
// trailing garbage.
func unmarshalStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

type submission struct {
	job       *Job
	coalesced bool
}

func (s *Server) submitJobs(w http.ResponseWriter, r *http.Request, reqs []jobRequest, batch bool) {
	// Phase 1, lock-free: resolve graphs (possibly generating inline specs)
	// and validate configs, so nothing slow or fallible happens while the
	// submit lock is held.
	type resolved struct {
		graphID string
		g       *graph.Graph
		cfg     runcfg.Config
		fresh   bool
	}
	root := obs.SpanFromContext(r.Context())
	resolveSpan := s.tracer.StartChild(root.Context(), "store.resolve")
	work := make([]resolved, 0, len(reqs))
	var sources []string
	for i, req := range reqs {
		graphID, g, source, err := s.resolveGraph(req)
		if err != nil {
			resolveSpan.SetAttr("error", err.Error())
			resolveSpan.End()
			writeError(w, errorStatus(err), "job %d: %v", i, err)
			return
		}
		if !slices.Contains(sources, source) {
			sources = append(sources, source)
		}
		cfg := req.Config.WithDefaults()
		if err := cfg.Validate(); err != nil {
			resolveSpan.SetAttr("error", err.Error())
			resolveSpan.End()
			writeError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		work = append(work, resolved{graphID: graphID, g: g, cfg: cfg, fresh: req.Fresh})
	}
	resolveSpan.SetAttr("jobs", strconv.Itoa(len(work)))
	// How the batch's graphs materialized: ram (resident heap), mmap
	// (page-mapped image, possibly just re-admitted from spill), parse
	// (generated/parsed this request). Distinct values, comma-joined.
	resolveSpan.SetAttr("source", strings.Join(sources, ","))
	resolveSpan.End()

	// Phase 2, under submitMu: intern and enqueue as one atomic step. The
	// lock makes Intern→Enqueue→(rollback Release on 429) indivisible, so a
	// concurrent identical request can never coalesce onto a job that is
	// about to be released because its batch did not fit the queue.
	reqID := requestID(r)
	admitSpan := s.tracer.StartChild(root.Context(), "queue.admit")
	s.submitMu.Lock()
	subs := make([]submission, 0, len(work))
	var toEnqueue []*Job
	for _, rw := range work {
		job, coalesced := s.jobs.Intern(rw.graphID, rw.g, rw.cfg, rw.fresh, reqID, root.Context())
		subs = append(subs, submission{job: job, coalesced: coalesced})
		if !coalesced {
			toEnqueue = append(toEnqueue, job)
		}
	}
	enqErr := s.sched.Enqueue(toEnqueue...)
	if enqErr != nil {
		for _, j := range toEnqueue {
			s.jobs.Release(j)
		}
	}
	s.submitMu.Unlock()
	admitSpan.SetAttr("enqueued", strconv.Itoa(len(toEnqueue)))
	admitSpan.SetAttr("coalesced", strconv.Itoa(len(subs)-len(toEnqueue)))
	if enqErr != nil {
		admitSpan.SetAttr("error", enqErr.Error())
	}
	admitSpan.End()

	if enqErr != nil {
		s.stats.jobRejected()
		switch {
		case errors.Is(enqErr, ErrBatchTooLarge):
			// Never admissible at this queue depth — retrying is futile.
			writeError(w, http.StatusRequestEntityTooLarge, "%v (batch %d, depth %d)",
				enqErr, len(toEnqueue), s.opts.QueueDepth)
		case errors.Is(enqErr, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v (depth %d)", enqErr, s.opts.QueueDepth)
		default:
			writeError(w, http.StatusServiceUnavailable, "%v", enqErr)
		}
		return
	}
	for _, j := range toEnqueue {
		s.stats.jobEnqueued()
		s.log.Info("job enqueued", "req", reqID, "job", j.ID,
			"algo", j.Cfg.Algo, "graph", j.GraphID)
	}
	for _, sub := range subs {
		if sub.coalesced {
			s.stats.jobCoalesced()
			s.log.Info("job coalesced", "req", reqID, "job", sub.job.ID,
				"creator_req", sub.job.ReqID)
		}
	}

	if wait, timeout := parseWait(r); wait {
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
	waitLoop:
		for _, sub := range subs {
			select {
			case <-sub.job.Done():
			case <-deadline.C:
				break waitLoop
			case <-r.Context().Done():
				// The waiting client disconnected: abort the jobs this
				// request created that nobody else has coalesced onto —
				// their only consumer is gone, so finishing them is wasted
				// compute. Shared (coalesced) jobs keep running. Checking
				// refs under submitMu makes the check atomic with Intern's
				// ref increment, so a concurrent identical submission can
				// never coalesce onto a job this branch is about to cancel.
				s.submitMu.Lock()
				for _, sb := range subs {
					if !sb.coalesced && sb.job.refs.Load() == 1 {
						s.cancelJob(sb.job)
					}
				}
				s.submitMu.Unlock()
				break waitLoop
			}
		}
	}

	status := http.StatusAccepted
	views := make([]jobJSON, len(subs))
	for i, sub := range subs {
		views[i] = s.jobView(sub.job, sub.coalesced)
	}
	if batch {
		writeJSON(w, status, views)
		return
	}
	writeJSON(w, status, views[0])
}

// resolveGraph maps a job request to a cached graph, resolving inline gen
// specs through the store (parse-once, deduplicated). source reports how
// the graph materialized: "ram", "mmap", or "parse" (see GraphStore).
func (s *Server) resolveGraph(req jobRequest) (id string, g *graph.Graph, source string, err error) {
	switch {
	case req.Graph != "" && req.Gen != "":
		return "", nil, "", fmt.Errorf("give either \"graph\" or \"gen\", not both")
	case req.Graph != "":
		g, source, ok := s.store.Resolve(req.Graph)
		if !ok {
			return "", nil, "", &statusError{http.StatusNotFound,
				fmt.Errorf("unknown graph %q (upload it via POST /v1/graphs)", req.Graph)}
		}
		return req.Graph, g, source, nil
	case req.Gen != "":
		id, g, _, source, err = s.addSpec(req.Gen, req.GenSeed)
		return id, g, source, err
	default:
		return "", nil, "", fmt.Errorf("missing \"graph\" id or \"gen\" spec")
	}
}

func parseWait(r *http.Request) (bool, time.Duration) {
	q := r.URL.Query()
	if q.Get("wait") != "true" && q.Get("wait") != "1" {
		return false, 0
	}
	timeout := 30 * time.Second
	if t := q.Get("timeout"); t != "" {
		if d, err := time.ParseDuration(t); err == nil && d > 0 {
			timeout = d
		}
	}
	return true, timeout
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j, false))
}

// cancelJob cancels a job wherever it is in its lifecycle: a still-queued
// job is terminalized immediately (and its queue slot freed); a running job
// has its context cancelled and the worker finishes it as cancelled within
// one LOCAL round; terminal jobs are left untouched. The job is decoupled
// from the coalescing map first, so no later submission attaches to a job
// that is about to die.
func (s *Server) cancelJob(j *Job) {
	if j.Status().terminal() {
		return // nothing to cancel; keep finished results coalescable
	}
	s.jobs.Decouple(j)
	j.Cancel()
	if j.markCancelledIfQueued() {
		s.sched.Remove(j)
		s.jobs.markTerminal(j)
		s.recordTerminal(j)
		s.log.Info("job cancelled while queued", "req", j.ReqID, "job", j.ID)
	}
}

// handleCancelJob is DELETE /v1/jobs/{id}: request cancellation and return
// the job's state after the attempt. Cancelling a running job is
// asynchronous (the response may still say "running"); waiters are released
// as soon as the run observes the cancellation.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, s.jobView(j, false))
}

// handleAlgorithms is GET /v1/algorithms: the registry, self-described.
// Each algorithm that declares RoundBound metadata reports its predicted
// round ceiling at (?n, ?maxdeg), defaulting to n=10⁶, Δ=100 — cost
// prediction before submitting a job.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	type paramJSON struct {
		Name    string  `json:"name"`
		Doc     string  `json:"doc,omitempty"`
		Default float64 `json:"default"`
	}
	type algoJSON struct {
		Name       string      `json:"name"`
		Doc        string      `json:"doc,omitempty"`
		Theorem    string      `json:"theorem,omitempty"`
		Params     []paramJSON `json:"params,omitempty"`
		RoundBound int         `json:"round_bound,omitempty"`
	}
	// Clamp the evaluation point: n to the int32 CSR limit no real graph
	// can exceed, maxdeg to distcolor.RoundBoundMaxDeg so a quadratic
	// bound formula cannot overflow into a negative "prediction".
	n, maxDeg := distcolor.RoundBoundRefN, distcolor.RoundBoundRefMaxDeg
	q := r.URL.Query()
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad n %q: want a positive integer", s)
			return
		}
		n = min(v, math.MaxInt32)
	}
	if s := q.Get("maxdeg"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad maxdeg %q: want a positive integer", s)
			return
		}
		maxDeg = min(v, distcolor.RoundBoundMaxDeg)
	}
	var out []algoJSON
	for _, a := range distcolor.Algorithms() {
		aj := algoJSON{Name: a.Name, Doc: a.Doc, Theorem: a.Theorem}
		for _, p := range a.Params {
			aj.Params = append(aj.Params, paramJSON{Name: p.Name, Doc: p.Doc, Default: p.Default})
		}
		if a.RoundBound != nil {
			if b := a.RoundBound(n, maxDeg); b > 0 {
				aj.RoundBound = b
			}
		}
		out = append(out, aj)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithms":     out,
		"round_bound_at": map[string]int{"n": n, "maxdeg": maxDeg},
	})
}

// handleGetColors is GET /v1/jobs/{id}/colors[?from=..&count=..]: the full
// assignment by default, or — for partial fetches of huge results — the
// ranged slice [from, from+count). Both forms stream in fixed-size chunks.
// Malformed range parameters are 400; a range outside [0, n] is 416 with a
// Content-Range header naming the valid extent.
func (s *Server) handleGetColors(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	v := j.Snapshot()
	switch {
	case v.Status == StatusFailed || v.Status == StatusCancelled:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.ID, v.Status, v.Err)
	case v.Result == nil:
		writeError(w, http.StatusConflict, "job %s is %s; colors are available once done", j.ID, v.Status)
	case v.Result.Clique != nil:
		// A clique certificate has no color array to slice; a ranged
		// request would otherwise get the full unranged body with 200 and
		// no signal that the range was ignored.
		if q := r.URL.Query(); q.Get("from") != "" || q.Get("count") != "" {
			writeError(w, http.StatusConflict,
				"job %s produced a clique certificate; ranged color reads do not apply", j.ID)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"clique": v.Result.Clique})
	default:
		colors := v.Result.Colors
		from, count, ranged, err := parseColorRange(r, len(colors))
		if err != nil {
			var rng *rangeError
			if errors.As(err, &rng) {
				w.Header().Set("Content-Range", fmt.Sprintf("items */%d", len(colors)))
				writeError(w, http.StatusRequestedRangeNotSatisfiable, "%v", err)
			} else {
				writeError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
		if strings.Contains(r.Header.Get("Accept"), "application/octet-stream") {
			streamColorsBinary(w, colors, from, count)
			return
		}
		streamColors(w, colors, from, count, ranged)
	}
}

// rangeError marks a syntactically valid but unsatisfiable color range.
type rangeError struct{ msg string }

func (e *rangeError) Error() string { return e.msg }

// parseColorRange resolves the optional from/count query parameters against
// a result of total colors. Defaults: from=0, count=total-from. Malformed
// values are plain errors (→ 400); integers outside [0, total] are
// *rangeError (→ 416). from == total with count 0 is a valid empty slice.
func parseColorRange(r *http.Request, total int) (from, count int, ranged bool, err error) {
	q := r.URL.Query()
	fs, cs := q.Get("from"), q.Get("count")
	from, count, ranged = 0, total, fs != "" || cs != ""
	if fs != "" {
		if from, err = strconv.Atoi(fs); err != nil {
			return 0, 0, ranged, fmt.Errorf("bad from %q: %v", fs, err)
		}
		if from < 0 || from > total {
			return 0, 0, ranged, &rangeError{fmt.Sprintf("from %d outside [0, %d]", from, total)}
		}
	}
	count = total - from
	if cs != "" {
		if count, err = strconv.Atoi(cs); err != nil {
			return 0, 0, ranged, fmt.Errorf("bad count %q: %v", cs, err)
		}
		if count < 0 || count > total-from {
			return 0, 0, ranged, &rangeError{fmt.Sprintf("count %d outside [0, %d] at from %d", count, total-from, from)}
		}
	}
	return from, count, ranged, nil
}

// colorChunk is how many colors streamColors writes per flush: large enough
// to amortize syscalls, small enough that a slow reader of an n=10⁷ result
// never forces the whole array into one buffer.
const colorChunk = 8192

// streamColors writes the slice colors[from:from+count] incrementally as
// {"colors":[...]} (full reads) or {"from":f,"total":n,"colors":[...]}
// (ranged reads): the assignment is encoded chunk by chunk into a reused
// buffer and flushed after every chunk, so the response memory footprint is
// O(colorChunk) regardless of n (ROADMAP "server-side result streaming").
func streamColors(w http.ResponseWriter, colors []int, from, count int, ranged bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 0, colorChunk*8)
	if ranged {
		buf = fmt.Appendf(buf, `{"from":%d,"total":%d,"colors":[`, from, len(colors))
	} else {
		buf = append(buf, `{"colors":[`...)
	}
	for i, c := range colors[from : from+count] {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
		if (i+1)%colorChunk == 0 {
			if _, err := w.Write(buf); err != nil {
				return // client went away; nothing sensible to do mid-body
			}
			buf = buf[:0]
			if fl != nil {
				fl.Flush()
			}
		}
	}
	buf = append(buf, "]}\n"...)
	if _, err := w.Write(buf); err != nil {
		return
	}
	if fl != nil {
		fl.Flush()
	}
}

// streamColorsBinary writes colors[from:from+count] as raw little-endian
// int32 values, 4 bytes per vertex with no framing — the job-result twin
// of the .dcsr array encoding, negotiated via Accept:
// application/octet-stream. Range metadata rides in the
// X-Distcolor-Colors-From/-Total headers instead of a JSON envelope.
func streamColorsBinary(w http.ResponseWriter, colors []int, from, count int) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(count*4))
	w.Header().Set("X-Distcolor-Colors-From", strconv.Itoa(from))
	w.Header().Set("X-Distcolor-Colors-Total", strconv.Itoa(len(colors)))
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 0, colorChunk*4)
	for _, c := range colors[from : from+count] {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c)))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return
			}
			buf = buf[:0]
			if fl != nil {
				fl.Flush()
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return
	}
	if fl != nil {
		fl.Flush()
	}
}

// statsJSON is the /v1/stats body of one replica; the fleet view decodes
// its peers' bodies into it too.
type statsJSON struct {
	Jobs          Snapshot   `json:"jobs"`
	QueueDepth    int        `json:"queue_depth"`
	QueueCapacity int        `json:"queue_capacity"`
	Workers       int        `json:"workers"`
	Graphs        graphsJSON `json:"graphs"`
}

// graphsJSON is the graph-store block of /v1/stats and /healthz. The spill
// fields are present only when spilling is on (a nil embedded pointer
// encodes to nothing).
type graphsJSON struct {
	Cached         int   `json:"cached"`
	WeightUsed     int64 `json:"weight_used"`
	WeightCapacity int64 `json:"weight_capacity"`
	Evicted        int64 `json:"evicted"`
	*SpillStats
}

func (s *Server) graphStats() graphsJSON {
	gs := graphsJSON{Cached: s.store.Len(), Evicted: s.store.Evicted()}
	gs.WeightUsed, gs.WeightCapacity = s.store.Used()
	if sp := s.store.Spill(); sp.Enabled {
		gs.SpillStats = &sp
	}
	return gs
}

// localStats builds this replica's /v1/stats body.
func (s *Server) localStats() statsJSON {
	return statsJSON{
		Jobs:          s.stats.Snapshot(),
		QueueDepth:    s.sched.QueueDepth(),
		QueueCapacity: s.opts.QueueDepth,
		Workers:       s.opts.Workers,
		Graphs:        s.graphStats(),
	}
}

// handleStats is GET /v1/stats: this replica's serving statistics, or —
// with ?fleet=true on a clustered replica — every replica's, plus a summed
// aggregate (see handleFleetStats).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if f := r.URL.Query().Get("fleet"); (f == "true" || f == "1") && s.cluster != nil {
		s.handleFleetStats(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.localStats())
}

// handleTrace is GET /v1/jobs/{id}/trace: the per-round execution trace of
// a finished job — per-phase round, message and active-list series plus
// per-shard delivery timings — in the same TraceReport JSON schema the CLI
// -trace flag writes. Queued or running jobs are 409 (the trace is built
// when the run ends); terminal jobs without a trace (cancelled before
// start, or run with observation off) are also 409.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	switch v := j.Snapshot(); {
	case !v.Status.terminal():
		writeError(w, http.StatusConflict, "job %s is %s; the trace is available once the job ends", j.ID, v.Status)
	default:
		rep := j.TraceReport()
		if rep == nil {
			writeError(w, http.StatusConflict, "job %s has no recorded trace", j.ID)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}
}

// handleMetrics is GET /metrics: the full registry in Prometheus text
// exposition format 0.0.4, or — when the scraper negotiates
// application/openmetrics-text via Accept — the OpenMetrics rendering,
// whose histogram buckets carry trace-ID exemplars linking latency
// outliers back to GET /v1/traces/{id}.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = s.metrics.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// writeSpans renders spans in the negotiated export format: the native
// span JSON by default, Chrome trace-event JSON (loadable as-is in
// ui.perfetto.dev) with ?format=chrome.
func writeSpans(w http.ResponseWriter, r *http.Request, spans []*obs.Span) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = obs.WriteChromeTrace(w, spans)
		return
	}
	_ = obs.WriteSpansJSON(w, spans)
}

// handleGetTraceSpans is GET /v1/traces/{traceID}[?format=chrome]: every
// span of one trace still resident in the flight ring, ordered by start
// time. 404 covers both unknown IDs and traces whose spans have aged out.
func (s *Server) handleGetTraceSpans(w http.ResponseWriter, r *http.Request) {
	id, err := obs.TraceIDFromHex(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spans := s.tracer.TraceSpans(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound,
			"no recorded spans for trace %s (the flight recorder keeps only the most recent spans)", id)
		return
	}
	writeSpans(w, r, spans)
}

// handleFlight is GET /debug/flight[?format=chrome]: the whole flight
// recorder — the most recent finished spans across all traces, sampled or
// not. This is the "what was the server just doing" surface; the same
// dump goes to stderr on SIGQUIT (see cmd/distcolor-serve).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	writeSpans(w, r, s.tracer.Spans())
}

// FlightDump writes the flight recorder's resident spans as native span
// JSON — the programmatic twin of GET /debug/flight, used by the SIGQUIT
// handler so a wedged or misbehaving server can be asked post-hoc what it
// was doing without an HTTP round trip.
func (s *Server) FlightDump(w io.Writer) error {
	return obs.WriteSpansJSON(w, s.tracer.Spans())
}

// handleHealthz is GET /healthz: liveness plus the state a peer (or an
// operator) needs to reason about this replica's place in the fleet — graph
// residency and, when clustered, this replica's ring view and per-peer
// health. The cluster prober reads only the status code; the body is for
// humans and tests.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ok":     true,
		"graphs": s.graphStats(),
	}
	if s.cluster != nil {
		members := s.cluster.Members()
		body["replica"] = s.cluster.Self()
		body["cluster"] = map[string]any{
			"ring":      members,
			"ring_size": len(members),
			"peers":     s.cluster.PeerStates(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}
