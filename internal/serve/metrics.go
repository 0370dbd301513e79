package serve

import (
	"strconv"
	"sync"

	"distcolor/internal/obs"
)

// serveMetrics is the serving tier's obs.Registry plus the instruments the
// hot paths write directly. Everything else — queue depth, worker
// occupancy, graph-store state — is registered as scrape-time funcs over
// the structures that already own those quantities (see wire), so /metrics
// and /v1/stats can never disagree with the engine's own view.
type serveMetrics struct {
	reg *obs.Registry

	// engineRounds/engineMessages accumulate every executed job's LOCAL
	// round and message totals, partial (cancelled/deadline-aborted) runs
	// included. shardImbalance is max/mean per-shard delivery time of the
	// most recent traced parallel run — the load-skew signal ROADMAP's
	// NUMA-pinning item needs as input.
	engineRounds   *obs.Counter
	engineMessages *obs.Counter
	shardImbalance *obs.FloatGauge

	// queueWait is the admission→start wait distribution — the latency a
	// job spends owned by the scheduler before a worker picks it up, the
	// quantity queue-depth gauges only hint at.
	queueWait *obs.Histogram

	// Cluster instruments, created by wire only on a clustered (or
	// quota-enforcing) server so a standalone /metrics stays free of
	// distcolor_cluster_* families. forwardHops counts request attempts
	// (retries and failover included); forwards* count completed forwards
	// by outcome.
	forwardsOK       *obs.Counter
	forwardsFailover *obs.Counter
	forwardsError    *obs.Counter
	forwardHops      *obs.Counter
	quotaRejections  *obs.Counter

	// httpReqs/httpLat cache the per-endpoint series so the request path
	// pays an RLock'd map hit instead of the registry's label rendering.
	mu       sync.RWMutex
	httpReqs map[string]*obs.Counter   // "endpoint code"
	httpLat  map[string]*obs.Histogram // endpoint
}

func newServeMetrics() *serveMetrics {
	reg := obs.NewRegistry()
	return &serveMetrics{
		reg: reg,
		engineRounds: reg.Counter("distcolor_engine_rounds_total",
			"LOCAL rounds executed across all jobs (partial runs included).", nil),
		engineMessages: reg.Counter("distcolor_engine_messages_total",
			"Point-to-point messages delivered across all jobs.", nil),
		shardImbalance: reg.FloatGauge("distcolor_engine_shard_imbalance",
			"Max-over-mean per-shard delivery time of the last traced parallel run (1 = balanced).", nil),
		queueWait: reg.Histogram("distcolor_job_queue_wait_seconds",
			"Job wait between queue admission and run start.", nil),
		httpReqs: map[string]*obs.Counter{},
		httpLat:  map[string]*obs.Histogram{},
	}
}

// wire registers the scrape-time views onto a constructed server's
// components. Called once from New, after store and scheduler exist.
func (m *serveMetrics) wire(s *Server) {
	reg := m.reg
	reg.GaugeFunc("distcolor_queue_depth",
		"Jobs waiting in the scheduler queue.", nil,
		func() float64 { return float64(s.sched.QueueDepth()) })
	reg.GaugeFunc("distcolor_queue_capacity",
		"Scheduler queue depth bound.", nil,
		func() float64 { return float64(s.opts.QueueDepth) })
	reg.GaugeFunc("distcolor_workers",
		"Worker pool size.", nil,
		func() float64 { return float64(s.opts.Workers) })
	reg.GaugeFunc("distcolor_workers_busy",
		"Workers currently executing a job.", nil,
		func() float64 { return float64(s.sched.Busy()) })
	reg.GaugeFunc("distcolor_graph_store_graphs",
		"Graphs resident in the store.", nil,
		func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("distcolor_graph_store_weight_used",
		"Resident heap adjacency weight (n + 2m per cached graph, plus 2m once its delivery mirror exists).", nil,
		func() float64 { used, _ := s.store.Used(); return float64(used) })
	reg.GaugeFunc("distcolor_graph_store_weight_capacity",
		"Graph store adjacency-weight bound.", nil,
		func() float64 { _, capacity := s.store.Used(); return float64(capacity) })
	reg.CounterFunc("distcolor_graph_store_hits_total",
		"Graph lookups answered by a resident graph.", nil,
		func() float64 { hits, _ := s.store.HitsMisses(); return float64(hits) })
	reg.CounterFunc("distcolor_graph_store_misses_total",
		"Graph lookups that missed (failed Gets and spec uploads that generated).", nil,
		func() float64 { _, misses := s.store.HitsMisses(); return float64(misses) })
	reg.CounterFunc("distcolor_graph_store_evictions_total",
		"Graphs evicted by the LRU weight bound.", nil,
		func() float64 { return float64(s.store.Evicted()) })
	reg.GaugeFunc("distcolor_store_spilled_graphs",
		"Cold graphs whose .dcsr image is on disk awaiting re-admission.", nil,
		func() float64 { return float64(s.store.Spill().SpilledGraphs) })
	reg.GaugeFunc("distcolor_store_spilled_bytes",
		"Bytes of cold .dcsr images on disk.", nil,
		func() float64 { return float64(s.store.Spill().SpilledBytes) })
	reg.GaugeFunc("distcolor_store_mapped_bytes",
		"Bytes of .dcsr images backing resident page-mapped graphs.", nil,
		func() float64 { return float64(s.store.Spill().MappedBytes) })
	reg.CounterFunc("distcolor_store_spills_total",
		"Evictions that kept a .dcsr image on disk instead of forgetting the graph.", nil,
		func() float64 { return float64(s.store.Spill().Spills) })
	reg.CounterFunc("distcolor_store_readmissions_total",
		"Spilled graphs paged back in by a later request.", nil,
		func() float64 { return float64(s.store.Spill().Readmits) })
	reg.CounterFunc("distcolor_store_spill_drops_total",
		"Spilled .dcsr images deleted: disk-budget evictions and images that failed to reopen or verify.", nil,
		func() float64 { return float64(s.store.Spill().Drops) })
	if s.cluster != nil {
		const forwardsHelp = "Requests forwarded to their owning replica, by outcome."
		m.forwardsOK = reg.Counter("distcolor_cluster_forwards_total", forwardsHelp,
			obs.Labels{"result": "ok"})
		m.forwardsFailover = reg.Counter("distcolor_cluster_forwards_total", forwardsHelp,
			obs.Labels{"result": "failover"})
		m.forwardsError = reg.Counter("distcolor_cluster_forwards_total", forwardsHelp,
			obs.Labels{"result": "error"})
		m.forwardHops = reg.Counter("distcolor_cluster_forward_hops_total",
			"Forward request attempts, retries and failover hops included.", nil)
		reg.GaugeFunc("distcolor_cluster_ring_size",
			"Healthy replicas in this replica's ring view (self included).", nil,
			func() float64 { return float64(len(s.cluster.Members())) })
		for _, st := range s.cluster.PeerStates() {
			url := st.URL
			reg.GaugeFunc("distcolor_cluster_peer_up",
				"Peer health as this replica sees it (1 = in the ring).",
				obs.Labels{"peer": url},
				func() float64 {
					for _, ps := range s.cluster.PeerStates() {
						if ps.URL == url && ps.Up {
							return 1
						}
					}
					return 0
				})
		}
	}
	if s.quota != nil {
		m.quotaRejections = reg.Counter("distcolor_cluster_quota_rejections_total",
			"Requests rejected by a client's drained quota bucket.", nil)
		reg.GaugeFunc("distcolor_cluster_quota_clients",
			"Client token buckets currently tracked.", nil,
			func() float64 { return float64(s.quota.Clients()) })
	}
}

// observeHTTP records one served request into the per-endpoint latency
// histogram and the (endpoint, code) request counter, creating the series
// on first sight of the pair. A non-empty traceID rides along as the
// bucket's OpenMetrics exemplar (pass "" for unsampled requests).
func (m *serveMetrics) observeHTTP(endpoint string, code int, seconds float64, traceID string) {
	key := endpoint + " " + strconv.Itoa(code)
	m.mu.RLock()
	h, c := m.httpLat[endpoint], m.httpReqs[key]
	m.mu.RUnlock()
	if h == nil || c == nil {
		m.mu.Lock()
		if h = m.httpLat[endpoint]; h == nil {
			h = m.reg.Histogram("distcolor_http_request_seconds",
				"HTTP request latency by route.", obs.Labels{"endpoint": endpoint})
			m.httpLat[endpoint] = h
		}
		if c = m.httpReqs[key]; c == nil {
			c = m.reg.Counter("distcolor_http_requests_total",
				"HTTP requests by route and status code.",
				obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
			m.httpReqs[key] = c
		}
		m.mu.Unlock()
	}
	h.ObserveExemplar(seconds, traceID)
	c.Inc()
}
