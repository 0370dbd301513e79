package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distcolor/internal/cluster"
)

// swappableHandler lets an httptest server come up — and its URL be known —
// before the Server it will front exists; replica URLs feed the peer list
// of the very servers that answer on them.
type swappableHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swappableHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// fleet is an in-process cluster of replicas, each a full Server behind its
// own httptest listener, all configured with the same peer list.
type fleet struct {
	t       *testing.T
	servers []*Server
	ts      []*httptest.Server
	urls    []string
	killed  []bool
}

func newFleet(t *testing.T, n int, mutate func(i int, o *Options)) *fleet {
	t.Helper()
	f := &fleet{t: t, killed: make([]bool, n)}
	swaps := make([]*swappableHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swappableHandler{}
		ts := httptest.NewServer(swaps[i])
		f.ts = append(f.ts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		opts := Options{
			Workers:   2,
			TraceSeed: uint64(1000 * (i + 1)), // distinct, deterministic ID streams
			Cluster: &cluster.Config{
				Self:            f.urls[i],
				Peers:           f.urls,
				ProbeInterval:   -1, // tests drive health explicitly
				FailAfter:       1,
				ReviveAfter:     1,
				ForwardAttempts: 1, // failover after a single refused attempt
				ForwardBackoff:  time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		s := New(opts)
		f.servers = append(f.servers, s)
		swaps[i].set(s)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.kill(i)
		}
	})
	return f
}

// kill stops replica i: its listener refuses connections and its workers
// drain — the "replica died" event the failover path exists for.
func (f *fleet) kill(i int) {
	if f.killed[i] {
		return
	}
	f.killed[i] = true
	f.ts[i].Close()
	f.servers[i].Close()
}

// ownerIndex returns which replica owns key (every live replica agrees).
func (f *fleet) ownerIndex(key string) int {
	owner := f.servers[0].cluster.Owner(key)
	for i, u := range f.urls {
		if u == owner {
			return i
		}
	}
	f.t.Fatalf("owner %q of key %q is not a fleet member", owner, key)
	return -1
}

// specFor returns a (spec, seed) pair whose graph is owned by replica
// `want`, plus its deterministic graph ID — found by scanning seeds, which
// must succeed quickly on any balanced ring.
func (f *fleet) specFor(want int) (spec string, seed uint64, id string) {
	spec = "apollonian:300"
	for seed = 1; seed < 200; seed++ {
		id = specGraphID(specKeyFor(spec, seed))
		if f.ownerIndex(id) == want {
			return spec, seed, id
		}
	}
	f.t.Fatalf("no seed below 200 routes %s to replica %d", spec, want)
	return
}

// do issues one request and returns the response with its body read; unlike
// doJSON it exposes headers, which is most of what cluster tests assert.
func (f *fleet) do(method, url string, header map[string]string, body string) (*http.Response, []byte) {
	f.t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		f.t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 0, 1024)
	buf := make([]byte, 1024)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, raw
}

// TestClusterRoutingDeterminism checks every replica computes the same
// owner for every key, that a gen-spec upload lands on (and is answered by)
// that owner from any ingress replica, and that replica-local raw uploads
// never route.
func TestClusterRoutingDeterminism(t *testing.T) {
	f := newFleet(t, 3, nil)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("gs%032x", k)
		want := f.servers[0].cluster.Owner(key)
		for i := 1; i < 3; i++ {
			if got := f.servers[i].cluster.Owner(key); got != want {
				t.Fatalf("key %q: replica 0 routes to %q, replica %d to %q", key, want, i, got)
			}
		}
	}

	spec, seed, wantID := f.specFor(2)
	body := fmt.Sprintf(`{"gen":%q,"seed":%d}`, spec, seed)
	for i := 0; i < 3; i++ {
		resp, raw := f.do("POST", f.urls[i]+"/v1/graphs", nil, body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload via replica %d: status %d: %s", i, resp.StatusCode, raw)
		}
		g := decode[graphJSON](t, raw)
		if g.ID != wantID {
			t.Fatalf("upload via replica %d: graph ID %q, want deterministic %q", i, g.ID, wantID)
		}
		if got := resp.Header.Get(cluster.ReplicaHeader); got != f.urls[2] {
			t.Fatalf("upload via replica %d executed on %q, owner is %q", i, got, f.urls[2])
		}
	}
	// The graph must be resident only on its owner.
	for i := 0; i < 3; i++ {
		_, _, ok := f.servers[i].store.Resolve(wantID)
		if want := i == 2; ok != want {
			t.Fatalf("replica %d residency of %s = %v, want %v", i, wantID, ok, want)
		}
	}

	// Raw edge-list uploads are replica-local: sequence ID, no routing, and
	// other replicas answer 404 rather than forwarding.
	resp, raw := f.do("POST", f.urls[0]+"/v1/graphs",
		map[string]string{"Content-Type": "text/plain"}, "3\n0 1\n1 2\n")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("raw upload: status %d: %s", resp.StatusCode, raw)
	}
	rawID := decode[graphJSON](t, raw).ID
	if IsSpecGraphID(rawID) {
		t.Fatalf("raw upload got a spec-style ID %q", rawID)
	}
	if got := resp.Header.Get(cluster.ReplicaHeader); got != f.urls[0] {
		t.Fatalf("raw upload executed on %q, want ingress replica %q", got, f.urls[0])
	}
	resp, _ = f.do("POST", f.urls[1]+"/v1/jobs?wait=true", nil,
		fmt.Sprintf(`{"graph":%q,"algo":"planar6"}`, rawID))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job on a replica-local graph via another replica: status %d, want 404", resp.StatusCode)
	}
}

// TestClusterFleetCoalescing is the tentpole's payoff: N identical
// submissions through different replicas converge on the owner and coalesce
// into one execution — jobs_enqueued sums to 1 across the fleet.
func TestClusterFleetCoalescing(t *testing.T) {
	f := newFleet(t, 3, nil)
	spec, seed, id := f.specFor(1)
	body := fmt.Sprintf(`{"gen":%q,"gen_seed":%d,"algo":"planar6"}`, spec, seed)

	const per = 2
	var wg sync.WaitGroup
	views := make([]jobJSON, 3*per)
	replicas := make([]string, 3*per)
	for i := 0; i < 3; i++ {
		for r := 0; r < per; r++ {
			wg.Add(1)
			go func(slot, ingress int) {
				defer wg.Done()
				resp, raw := f.do("POST", f.urls[ingress]+"/v1/jobs?wait=true", nil, body)
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit via replica %d: status %d: %s", ingress, resp.StatusCode, raw)
					return
				}
				views[slot] = decode[jobJSON](t, raw)
				replicas[slot] = resp.Header.Get(cluster.ReplicaHeader)
			}(i*per+r, i)
		}
	}
	wg.Wait()
	jobID := views[0].ID
	for slot, v := range views {
		if v.ID != jobID {
			t.Fatalf("submission %d got job %q, others %q — not coalesced fleet-wide", slot, v.ID, jobID)
		}
		if v.Status != StatusDone {
			t.Fatalf("submission %d: job status %q: %s", slot, v.Status, v.Error)
		}
		if replicas[slot] != f.urls[1] {
			t.Fatalf("submission %d executed on %q, owner is %q", slot, replicas[slot], f.urls[1])
		}
	}

	// The fleet stats aggregate must agree: one enqueue, N-1 coalesced.
	resp, raw := f.do("GET", f.urls[0]+"/v1/stats?fleet=true", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stats: status %d: %s", resp.StatusCode, raw)
	}
	var fs struct {
		Replicas  []replicaStats `json:"replicas"`
		Aggregate fleetAggregate `json:"aggregate"`
	}
	if err := json.Unmarshal(raw, &fs); err != nil {
		t.Fatalf("fleet stats body: %v\n%s", err, raw)
	}
	if fs.Aggregate.Replicas != 3 || fs.Aggregate.ReplicasReporting != 3 {
		t.Fatalf("aggregate replicas %d/%d, want 3/3", fs.Aggregate.ReplicasReporting, fs.Aggregate.Replicas)
	}
	if fs.Aggregate.JobsEnqueued != 1 {
		t.Fatalf("fleet jobs_enqueued = %d, want exactly 1 (one execution)", fs.Aggregate.JobsEnqueued)
	}
	if want := int64(3*per - 1); fs.Aggregate.JobsCoalesced != want {
		t.Fatalf("fleet jobs_coalesced = %d, want %d", fs.Aggregate.JobsCoalesced, want)
	}
	if len(fs.Replicas) != 3 {
		t.Fatalf("fleet stats lists %d replicas, want 3", len(fs.Replicas))
	}
	for _, row := range fs.Replicas {
		if !row.Up || row.Error != "" {
			t.Fatalf("replica %s reported down/error in a healthy fleet: %+v", row.Replica, row)
		}
	}
	_ = id
}

// traceSpans polls url until the trace export contains at least minSpans
// spans (root spans publish just after the response is written, so the
// first poll can race them).
func (f *fleet) traceSpans(url string, minSpans int) []struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Name     string `json:"name"`
} {
	f.t.Helper()
	type span = struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
		Name     string `json:"name"`
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, raw := f.do("GET", url, nil, "")
		if resp.StatusCode == http.StatusOK {
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(raw, &doc); err == nil && len(doc.Spans) >= minSpans {
				return doc.Spans
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("trace at %s never reached %d spans", url, minSpans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterForwardTraceContinuity checks a forwarded request is one trace
// across the fleet: the ingress replica records a cluster.forward span under
// its root, and the executing replica's root span carries the same trace ID
// with the forward span as its parent.
func TestClusterForwardTraceContinuity(t *testing.T) {
	f := newFleet(t, 3, nil)
	spec, seed, _ := f.specFor(2)
	body := fmt.Sprintf(`{"gen":%q,"gen_seed":%d,"algo":"planar6"}`, spec, seed)

	resp, raw := f.do("POST", f.urls[0]+"/v1/jobs?wait=true", nil, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	tp := resp.Header.Get("Traceparent")
	if tp == "" {
		t.Fatal("forwarded response lost the ingress Traceparent")
	}
	traceID := strings.Split(tp, "-")[1]

	ingress := f.traceSpans(f.urls[0]+"/v1/traces/"+traceID, 2)
	var forwardSpanID string
	for _, sp := range ingress {
		if sp.Name == "cluster.forward" {
			forwardSpanID = sp.SpanID
		}
		if sp.TraceID != traceID {
			t.Fatalf("ingress span %s in trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
	}
	if forwardSpanID == "" {
		t.Fatalf("ingress trace has no cluster.forward span: %+v", ingress)
	}

	remote := f.traceSpans(f.urls[2]+"/v1/traces/"+traceID, 1)
	foundRemoteRoot := false
	for _, sp := range remote {
		if sp.TraceID != traceID {
			t.Fatalf("remote span %s in trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
		if strings.HasPrefix(sp.Name, "HTTP") && sp.ParentID == forwardSpanID {
			foundRemoteRoot = true
		}
	}
	if !foundRemoteRoot {
		t.Fatalf("no remote root span parented by the cluster.forward span %s: %+v", forwardSpanID, remote)
	}
}

// TestClusterFailover kills a graph's owner and checks the next submission
// through a surviving replica fails over to the ring successor (≤1 extra
// attempt), the dead replica is ejected, and the graph is regenerated —
// rehomed — on the successor.
func TestClusterFailover(t *testing.T) {
	f := newFleet(t, 3, nil)
	spec, seed, id := f.specFor(1)
	body := fmt.Sprintf(`{"gen":%q,"gen_seed":%d,"algo":"planar6"}`, spec, seed)

	resp, raw := f.do("POST", f.urls[0]+"/v1/jobs?wait=true", nil, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-failover submit: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(cluster.ReplicaHeader); got != f.urls[1] {
		t.Fatalf("pre-failover executed on %q, owner is %q", got, f.urls[1])
	}

	f.kill(1)
	successor := f.servers[0].cluster.NextOwner(id, f.urls[1])
	if successor == f.urls[1] || successor == "" {
		t.Fatalf("bad failover successor %q", successor)
	}

	resp, raw = f.do("POST", f.urls[0]+"/v1/jobs?wait=true", nil, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover submit: status %d: %s", resp.StatusCode, raw)
	}
	v := decode[jobJSON](t, raw)
	if v.Status != StatusDone {
		t.Fatalf("failover job status %q: %s", v.Status, v.Error)
	}
	if got := resp.Header.Get(cluster.ReplicaHeader); got != successor {
		t.Fatalf("failover executed on %q, want successor %q", got, successor)
	}
	// With FailAfter=1 the refused forward ejected the owner.
	members := f.servers[0].cluster.Members()
	if len(members) != 2 {
		t.Fatalf("dead replica not ejected: members = %v", members)
	}
	// The graph rehomed: regenerated from its spec on the successor.
	var succServer *Server
	for i, u := range f.urls {
		if u == successor {
			succServer = f.servers[i]
		}
	}
	if _, _, ok := succServer.store.Resolve(id); !ok {
		t.Fatalf("graph %s not resident on successor after failover", id)
	}
	// Post-ejection, routing goes straight to the successor (no retry hop).
	if got := f.servers[0].cluster.Owner(id); got != successor {
		t.Fatalf("post-ejection owner %q, want %q", got, successor)
	}
}

// TestClusterQuotaIsolation checks per-client token buckets: one tenant
// draining its bucket gets 429 with a Retry-After while another tenant on
// the same replica sails through, and forwarded hops are never re-charged.
func TestClusterQuotaIsolation(t *testing.T) {
	f := newFleet(t, 3, func(i int, o *Options) {
		o.QuotaRPS = 1
		o.QuotaBurst = 1
	})
	spec, seed, _ := f.specFor(1)
	body := fmt.Sprintf(`{"gen":%q,"gen_seed":%d,"algo":"planar6"}`, spec, seed)
	hdrA := map[string]string{cluster.ClientHeader: "tenant-a"}
	hdrB := map[string]string{cluster.ClientHeader: "tenant-b"}

	// Tenant A's first request forwards (ingress 0 → owner 1) and succeeds:
	// the owner's own quota must not charge the forwarded hop.
	resp, raw := f.do("POST", f.urls[0]+"/v1/jobs?wait=true", hdrA, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-a first submit: status %d: %s", resp.StatusCode, raw)
	}
	// A's second request inside the same second drains against the bucket.
	resp, raw = f.do("POST", f.urls[0]+"/v1/jobs", hdrA, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-a second submit: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
	}
	// Tenant B is unaffected.
	resp, raw = f.do("POST", f.urls[0]+"/v1/jobs?wait=true", hdrB, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-b submit: status %d: %s", resp.StatusCode, raw)
	}
	// And tenant B still has quota on the owner replica: the forwarded hops
	// above must not have drained B's bucket there.
	resp, raw = f.do("POST", f.urls[1]+"/v1/jobs?wait=true", hdrB, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-b direct submit to owner: status %d: %s", resp.StatusCode, raw)
	}
}

// TestClusterHealthz checks the upgraded health body reports ring
// membership, peer states and graph residency.
func TestClusterHealthz(t *testing.T) {
	f := newFleet(t, 3, nil)
	resp, raw := f.do("GET", f.urls[0]+"/healthz", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var body struct {
		OK      bool   `json:"ok"`
		Replica string `json:"replica"`
		Graphs  struct {
			Cached         int   `json:"cached"`
			WeightCapacity int64 `json:"weight_capacity"`
		} `json:"graphs"`
		Cluster struct {
			Ring     []string            `json:"ring"`
			RingSize int                 `json:"ring_size"`
			Peers    []cluster.PeerState `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, raw)
	}
	if !body.OK || body.Replica != f.urls[0] {
		t.Fatalf("healthz ok/replica = %v/%q", body.OK, body.Replica)
	}
	if body.Cluster.RingSize != 3 || len(body.Cluster.Ring) != 3 {
		t.Fatalf("healthz ring %v (size %d), want all 3 replicas", body.Cluster.Ring, body.Cluster.RingSize)
	}
	if len(body.Cluster.Peers) != 2 {
		t.Fatalf("healthz lists %d peers, want 2 remotes", len(body.Cluster.Peers))
	}
	for _, p := range body.Cluster.Peers {
		if p.State != "up" {
			t.Fatalf("peer %s state %q in a healthy fleet", p.URL, p.State)
		}
	}
	if body.Graphs.WeightCapacity <= 0 {
		t.Fatalf("healthz graph capacity %d", body.Graphs.WeightCapacity)
	}
}
