// cluster.go is the serving layer's side of the clustering subsystem: it
// decides which requests route to another replica, proxies them through
// internal/cluster under a cluster.forward span, enforces per-client
// quotas at the ingress replica, and builds the fleet views (stats fan-out,
// the upgraded /healthz body).
//
// Routing is by graph identity, not by (graph, config, seed): every config
// for one graph lands on the graph's owner, which is exactly what keeps the
// parse-once cache hot and makes the per-replica job coalescing fleet-wide
// — N identical submissions anywhere in the fleet converge on one replica
// and therefore on one execution. Only fleet-deterministic graph IDs route:
// generator specs (and the "gs…" IDs they produce) hash identically on
// every replica; raw edge-list uploads keep replica-local "gN" IDs and
// always execute where they live.
package serve

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"strconv"

	"distcolor/internal/cluster"
	"distcolor/internal/obs"
)

// routeKey maps one job request to its fleet route key: the deterministic
// graph ID, or "" when the request names a replica-local graph and must
// execute here.
func routeKey(req jobRequest) string {
	switch {
	case req.Gen != "":
		return specGraphID(specKeyFor(req.Gen, req.GenSeed))
	case IsSpecGraphID(req.Graph):
		return req.Graph
	default:
		return ""
	}
}

// maybeForwardJobs forwards a whole job submission when every job in it
// routes to the same remote owner. Mixed-owner batches run locally — still
// correct, they just forgo cross-fleet coalescing for this batch. Reports
// whether the response has been written.
func (s *Server) maybeForwardJobs(w http.ResponseWriter, r *http.Request, body []byte, reqs []jobRequest) bool {
	if s.cluster == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	var key string
	for i, req := range reqs {
		k := routeKey(req)
		if k == "" || (i > 0 && k != key) {
			return false
		}
		key = k
	}
	return s.maybeForward(w, r, body, key)
}

// maybeForward forwards the request when key is owned by a remote replica.
// Forwarded-in requests never re-forward (loop protection), so divergent
// ring views degrade to an extra hop's worth of local execution, never a
// cycle.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, body []byte, key string) bool {
	if s.cluster == nil || key == "" || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner := s.cluster.Owner(key)
	if owner == "" || owner == s.cluster.Self() {
		return false
	}
	s.forward(w, r, body, key, owner)
	return true
}

// forward proxies the request to owner under a cluster.forward span and
// accounts the outcome. The span's traceparent rides the hop, so the remote
// replica's root span continues this trace as a child of the forward span —
// one trace across the fleet.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, body []byte, key, owner string) {
	root := obs.SpanFromContext(r.Context())
	span := s.tracer.StartChild(root.Context(), "cluster.forward")
	span.SetAttr("key", key)
	span.SetAttr("owner", owner)
	tp := ""
	if sc := span.Context(); sc.Valid() {
		tp = sc.Traceparent()
	} else if rc := root.Context(); rc.Valid() {
		// Unsampled traces still propagate identity; only span recording is
		// off.
		tp = rc.Traceparent()
	}
	out := s.cluster.Forward(w, r, body, key, owner, tp)
	if m := s.metrics; m.forwardHops != nil {
		m.forwardHops.Add(int64(out.Attempts))
		switch {
		case out.Err != nil:
			m.forwardsError.Inc()
		case out.FailedOver:
			m.forwardsFailover.Inc()
		default:
			m.forwardsOK.Inc()
		}
	}
	span.SetAttr("attempts", strconv.Itoa(out.Attempts))
	if out.Err != nil {
		span.SetAttr("error", out.Err.Error())
		span.End()
		s.log.Warn("cluster forward failed", "req", requestID(r), "key", key,
			"owner", owner, "attempts", out.Attempts, "err", out.Err)
		writeError(w, http.StatusBadGateway, "forwarding to owner %s failed after %d attempts: %v",
			owner, out.Attempts, out.Err)
		return
	}
	span.SetAttr("replica", out.Replica)
	span.SetAttr("status", strconv.Itoa(out.Status))
	if out.FailedOver {
		span.SetAttr("failed_over", "true")
	}
	span.End()
	s.log.Info("cluster forward", "req", requestID(r), "key", key,
		"replica", out.Replica, "status", out.Status,
		"attempts", out.Attempts, "failed_over", out.FailedOver)
}

// admitQuota charges the request to its client's token bucket. Forwarded
// requests pass free: they were charged at their ingress replica, and a hop
// must never double-bill. A drained bucket answers 429 with a Retry-After
// telling the client when a token accrues.
func (s *Server) admitQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return true
	}
	client := clientIdentity(r)
	ok, retry := s.quota.Allow(client)
	if ok {
		return true
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	if s.metrics.quotaRejections != nil {
		s.metrics.quotaRejections.Inc()
	}
	writeError(w, http.StatusTooManyRequests,
		"client %q exceeded the %g req/s quota; retry in %ds", client, s.opts.QuotaRPS, secs)
	return false
}

// clientIdentity names the quota tenant: the ClientHeader when the caller
// identifies itself, else the remote host (port stripped — ephemeral ports
// must not split one client into many).
func clientIdentity(r *http.Request) string {
	if c := r.Header.Get(cluster.ClientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ---- fleet stats ----

// fleetAggregate is the sum of every reporting replica's /v1/stats body.
// Latency percentiles do not sum; the per-replica bodies carry them.
type fleetAggregate struct {
	Replicas          int   `json:"replicas"`
	ReplicasReporting int   `json:"replicas_reporting"`
	JobsEnqueued      int64 `json:"jobs_enqueued"`
	JobsCoalesced     int64 `json:"jobs_coalesced"`
	JobsRejected      int64 `json:"jobs_rejected"`
	JobsDone          int64 `json:"jobs_done"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsCancelled     int64 `json:"jobs_cancelled"`
	QueueDepth        int64 `json:"queue_depth"`
	QueueCapacity     int64 `json:"queue_capacity"`
	Workers           int64 `json:"workers"`
	GraphsCached      int64 `json:"graphs_cached"`
	GraphWeightUsed   int64 `json:"graph_weight_used"`
	GraphsEvicted     int64 `json:"graphs_evicted"`
}

func (a *fleetAggregate) add(d *statsJSON) {
	a.ReplicasReporting++
	a.JobsEnqueued += d.Jobs.JobsEnqueued
	a.JobsCoalesced += d.Jobs.JobsCoalesced
	a.JobsRejected += d.Jobs.JobsRejected
	a.JobsDone += d.Jobs.JobsDone
	a.JobsFailed += d.Jobs.JobsFailed
	a.JobsCancelled += d.Jobs.JobsCancelled
	a.QueueDepth += int64(d.QueueDepth)
	a.QueueCapacity += int64(d.QueueCapacity)
	a.Workers += int64(d.Workers)
	a.GraphsCached += int64(d.Graphs.Cached)
	a.GraphWeightUsed += d.Graphs.WeightUsed
	a.GraphsEvicted += d.Graphs.Evicted
}

// replicaStats is one replica's row in the fleet stats body.
type replicaStats struct {
	Replica string     `json:"replica"`
	Up      bool       `json:"up"`
	Error   string     `json:"error,omitempty"`
	Stats   *statsJSON `json:"stats,omitempty"`
}

// handleFleetStats is GET /v1/stats?fleet=true on a clustered replica: the
// local stats plus a concurrent fan-out to every peer, returned per replica
// and summed into an aggregate. Unreachable peers are listed with their
// error, never silently dropped — a fleet view that omits the down replica
// is how outages hide.
func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	local := s.localStats()
	agg := fleetAggregate{Replicas: 1}
	agg.add(&local)
	replicas := []replicaStats{{Replica: s.cluster.Self(), Up: true, Stats: &local}}
	for _, res := range s.cluster.FanOut(r.Context(), "/v1/stats", 0) {
		agg.Replicas++
		row := replicaStats{Replica: res.Replica, Up: res.Up}
		switch {
		case res.Err != nil:
			row.Error = res.Err.Error()
		case res.Status != http.StatusOK:
			row.Error = "stats status " + strconv.Itoa(res.Status)
		default:
			doc := new(statsJSON)
			if err := json.Unmarshal(res.Body, doc); err != nil {
				row.Error = "bad stats body: " + err.Error()
				break
			}
			row.Stats = doc
			agg.add(doc)
		}
		replicas = append(replicas, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas":  replicas,
		"aggregate": agg,
	})
}
