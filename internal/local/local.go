// Package local implements the LOCAL model of distributed computing
// (Linial): an n-node network where every node has a unique identifier,
// nodes operate in synchronous rounds, message size is unbounded and local
// computation is free. The round complexity of an algorithm is the number
// of rounds until every node has produced its output.
//
// The package offers two execution faces with a shared round ledger:
//
//   - RunSync: a genuine synchronous message-passing engine — a bounded
//     worker pool executes every node's step each round, with deterministic
//     double-buffered message delivery between rounds. Used by the
//     small-message subroutines (color reduction, flooding, ball
//     collection) and by the cross-validation tests.
//   - Ledger.Charge: explicit round charging for centrally executed phases.
//     In the LOCAL model any r-round algorithm is exactly equivalent to
//     "collect the labeled radius-r ball and decide" — so ball-scale phases
//     (Gallai checks at radius c·log n, ruling-forest levels, root-ball
//     recoloring) execute centrally and charge their LOCAL cost explicitly.
//
// All round counts reported by the reproduction come from Ledger.
package local

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"distcolor/internal/graph"
)

// Network binds a graph to an ID assignment. IDs are a permutation of
// 1..n, as in the paper (each node also knows n).
type Network struct {
	G  *graph.Graph
	ID []int // ID[v] is the identifier of vertex v (1-based, unique)
}

// NewNetwork assigns IDs 1..n in vertex order.
func NewNetwork(g *graph.Graph) *Network {
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v + 1
	}
	return &Network{G: g, ID: ids}
}

// NewShuffledNetwork assigns a random permutation of 1..n as IDs.
func NewShuffledNetwork(g *graph.Graph, rng *rand.Rand) *Network {
	ids := rng.Perm(g.N())
	for v := range ids {
		ids[v]++
	}
	return &Network{G: g, ID: ids}
}

// Validate checks that IDs are a permutation of 1..n.
func (nw *Network) Validate() error {
	n := nw.G.N()
	if len(nw.ID) != n {
		return fmt.Errorf("local: %d ids for %d vertices", len(nw.ID), n)
	}
	seen := make([]bool, n+1)
	for _, id := range nw.ID {
		if id < 1 || id > n || seen[id] {
			return fmt.Errorf("local: ids are not a permutation of 1..%d", n)
		}
		seen[id] = true
	}
	return nil
}

// PhaseCost records the LOCAL rounds charged to one named phase.
type PhaseCost struct {
	Phase  string
	Rounds int
}

// Ledger accumulates the LOCAL round cost of an algorithm execution, with a
// per-phase breakdown, plus message statistics for the message-passing
// engine (the LOCAL model does not bound message size; the ledger records
// what a CONGEST implementation would have to pay). The zero value is ready
// to use. Ledger is not goroutine-safe; engines own one ledger each, and a
// run's sub-runs charge the run's ledger.
//
// A ledger is also the run's trace: once Begin marks it traced, it records
// each phase's engine rounds, samples, shard timings and wall clock beside
// the charges, feeds its OnCharge observer, and Report turns it into the
// wire form. Untraced, a charge is one append or merge and one flag check.
type Ledger struct {
	phases []PhaseCost
	total  int

	messages     int // messages delivered by RunSync
	maxRoundMsgs int // largest per-round total message count

	traced   bool
	extras   []*tracePhase // per-phase trace records, in first-seen order
	byName   map[string]*tracePhase
	lastT    time.Time
	onCharge func(phase string, delta, total int)
}

// Messages returns the number of point-to-point messages delivered by the
// message-passing engine (broadcasts count once per neighbor).
func (l *Ledger) Messages() int { return l.messages }

// MaxRoundMessages returns the largest number of messages delivered in any
// single round.
func (l *Ledger) MaxRoundMessages() int { return l.maxRoundMsgs }

// recordRound books one executed engine round: its messages, and on a
// traced ledger the phase's round record.
func (l *Ledger) recordRound(phase string, active, count int) {
	l.messages += count
	if count > l.maxRoundMsgs {
		l.maxRoundMsgs = count
	}
	if l.traced {
		l.engineRound(phase, active, count)
	}
}

// Charge adds rounds to the named phase (merged with the previous entry when
// the phase name repeats consecutively). Charge when the phase's work is
// done: a traced ledger bills the wall clock since the previous charge to
// the charged phase.
func (l *Ledger) Charge(phase string, rounds int) {
	if rounds < 0 {
		panic("local: negative round charge")
	}
	l.total += rounds
	if k := len(l.phases); k > 0 && l.phases[k-1].Phase == phase {
		l.phases[k-1].Rounds += rounds
	} else {
		l.phases = append(l.phases, PhaseCost{Phase: phase, Rounds: rounds})
	}
	if l.traced {
		l.traceCharge(phase, rounds)
	}
}

// Rounds returns the total rounds charged.
func (l *Ledger) Rounds() int { return l.total }

// Phases returns a copy of the per-phase breakdown.
func (l *Ledger) Phases() []PhaseCost {
	return append([]PhaseCost(nil), l.phases...)
}

// ByPhase aggregates total rounds per phase name (non-consecutive repeats
// are summed), sorted by descending rounds, then name.
func (l *Ledger) ByPhase() []PhaseCost { return l.byPhase(nil) }

// Message is an arbitrary value exchanged between neighbors in one round.
type Message any

// Inbound is a message received from the neighbor attached at Port.
type Inbound struct {
	Port int // index into this node's neighbor list
	Msg  Message
}

// Outbound is a message to send to the neighbor attached at Port. A
// Broadcast port of -1 sends to all neighbors.
type Outbound struct {
	Port int
	Msg  Message
}

// Broadcast is the Outbound port meaning "all neighbors".
const Broadcast = -1

// NodeInfo is the static knowledge a node starts with, per the paper's
// model: its own ID, its degree, and n.
type NodeInfo struct {
	V int // vertex index — engines use it for routing; honest programs
	// only read ID/Degree/N and the per-node data handed to them.
	ID     int
	Degree int
	N      int
}

// Program is the state machine of one node. Step is called once per round
// with the messages received; it returns messages to send and whether the
// node has halted (halted nodes receive no further Steps; their pending
// outbox is still delivered).
type Program interface {
	Init(info NodeInfo)
	Step(round int, inbox []Inbound) (outbox []Outbound, halt bool)
	Output() any
}

// workerChunk is how many active nodes a pool worker claims per grab. Large
// enough to amortize the atomic increment, small enough to balance skewed
// per-node step costs (flooding steps near a hub are far pricier than at the
// periphery).
const workerChunk = 64

// BatchThreshold is the active-list size at or below which the engine fuses
// every remaining round into inline serial execution on the coordinator: once
// the live active list fits in a single worker chunk there is nothing left to
// parallelize, and a pool dispatch (two phase barriers, workers woken twice)
// costs more than the round it runs. The active list only ever shrinks —
// halted nodes never return — so the engine switches once and never wakes the
// pool again for the rest of the execution. This matters on the long bounded
// tails the registry's RoundBound metadata describes (e.g. the Δ²-palette
// color reductions charge one round per color class while only that class is
// active): outputs, ledger charges and message counts are bit-identical
// either way, which the engine tests enforce by holding fused executions
// against BatchThreshold=0 runs.
//
// 0 disables fusion (every multi-worker round runs on the pool). The engine
// snapshots the value at creation; tests that change it must restore it and
// must not race a running engine.
var BatchThreshold = workerChunk

// staged is one routed message sitting in a staging bucket between the step
// and delivery phases: the receiver vertex and its receiver-side port,
// resolved at send time via the graph's CSR mirror array (graph.Mirror).
type staged struct {
	to   int32
	port int32
	msg  Message
}

// engine is the two-phase sharded message plane behind RunSync. One round
// runs two pool phases over the same min(GOMAXPROCS, n) long-lived workers:
//
//   - Step phase: workers claim chunks of the active list off an atomic
//     cursor and run each node's Step. Every outgoing message is routed
//     immediately — receiver and receiver-side port resolved via the CSR
//     mirror array — into the staging bucket keyed by (chunk index,
//     receiver shard). Buckets are keyed by the chunk index claimed off the
//     cursor, not by worker id, so bucket contents are independent of the
//     nondeterministic chunk→worker assignment.
//   - Delivery phase: worker s owns a contiguous shard of receiver vertices
//     (ranges balanced by degree mass) and drains buckets (c, s) for
//     ascending chunk index c into its shard's double-buffered inboxes.
//     Chunks partition the active list in order, and each chunk's bucket is
//     filled by a single worker stepping its nodes in order, so the inbox
//     of every receiver is byte-identical to the sequential engine's
//     ascending-active-order delivery — at any GOMAXPROCS. The same phase
//     also compacts this worker's segment of the active list (halts are
//     complete once the step phase ends) and counts delivered messages into
//     a per-shard counter; the coordinator aggregates the counters into the
//     ledger and concatenates the compacted segments.
//
// Output collection at the end of the run is a third pool phase, chunked
// over all vertices.
//
// Rounds stop using the pool entirely once the active list shrinks to at
// most batchLimit nodes: the engine fuses every remaining round into inline
// serial execution on the coordinator (see BatchThreshold and
// runRoundSerial), bit-identical to the pooled rounds by construction.
type engine struct {
	nw      *Network
	offsets []int32
	nbrs    []int32
	mirror  []int32
	progs   []Program

	inboxes     [][]Inbound
	nextInboxes [][]Inbound
	active      []int32 // non-halted nodes, ascending; compacted each round
	halts       []bool  // per-node result slot, written during the step phase

	workers int
	round   int

	// Round batching (see BatchThreshold). Once serial is set, rounds run
	// inline on the coordinator with no pool dispatch; the flag never clears
	// because the active list never grows. Small serial rounds (active ≤
	// batchLimit) additionally keep their cost O(active+messages) instead of
	// O(n) with two-generation dirty-receiver lists: dirtyCur names the
	// non-empty buffers of the inboxes generation, dirtyNext those of
	// nextInboxes, and both swap with their buffers. dirtyKnown marks the
	// invariant "nextInboxes is fully empty, dirty lists accurate" as
	// established (a one-time O(n) step); big serial rounds — a single-worker
	// engine early in a run — skip the tracking entirely, since at thousands
	// of messages per round a blanket clear is cheaper than a per-message
	// dirty check.
	serial     bool
	dirtyKnown bool
	batchLimit int
	dirtyCur   []int32
	dirtyNext  []int32

	// buckets[c*workers+s] stages the messages of chunk c addressed to
	// shard s. Sized for the round-1 chunk count (the active list only
	// shrinks); each delivery drains and resets the buckets it owns, so
	// capacity is reused across rounds.
	buckets   [][]staged
	numChunks int

	shardOf   []int32 // shardOf[v] = delivery worker owning receiver v
	shardLo   []int32 // worker s owns vertices [shardLo[s], shardLo[s+1])
	shardMsgs []int   // per-shard delivered-message counters
	// shardNs, when non-nil, accumulates per-shard delivery wall time for
	// a traced ledger (set by RunSync iff tracing is on; pooled path
	// only — a serial engine has one implicit shard and nothing to
	// balance). nil keeps the delivery hot path at a single pointer check.
	shardNs   []int64
	segBounds []int // active-list compaction segment bounds, workers+1
	segLen    []int // kept entries per compaction segment

	cursor atomic.Int64
	phase  func(worker int) // body of the phase currently dispatched
	// start is per-worker: the delivery phase is keyed by worker identity
	// (shard w, segment w), so each dispatch must reach each worker exactly
	// once — a shared channel would let a fast worker steal a slow one's
	// token and leave that worker's shard undelivered.
	start []chan struct{}
	done  chan any // nil or recovered panic value per worker
	stop  chan struct{}
}

func newEngine(nw *Network) *engine {
	g := nw.G
	n := g.N()
	batchLimit := BatchThreshold
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n <= batchLimit {
		// The whole execution is below the fusion threshold: every round will
		// run serially, so don't spin up pool goroutines at all.
		workers = 1
	}
	if workers < 1 {
		workers = 1
	}
	offsets, nbrs := g.CSR()
	e := &engine{
		nw:          nw,
		offsets:     offsets,
		nbrs:        nbrs,
		mirror:      g.Mirror(),
		progs:       make([]Program, n),
		inboxes:     make([][]Inbound, n),
		nextInboxes: make([][]Inbound, n),
		active:      make([]int32, n),
		halts:       make([]bool, n),
		workers:     workers,
		batchLimit:  batchLimit,
		shardMsgs:   make([]int, workers),
		segBounds:   make([]int, workers+1),
		segLen:      make([]int, workers),
		start:       make([]chan struct{}, workers),
		done:        make(chan any, workers),
		stop:        make(chan struct{}),
	}
	for v := range e.active {
		e.active[v] = int32(v)
	}
	e.numChunks = (n + workerChunk - 1) / workerChunk
	if workers == 1 {
		// Serial fast path (see runRoundSerial): no pool, no staging.
		// Dirty-receiver tracking starts lazily once the active list shrinks
		// below batchLimit; until then rounds use the blanket clear.
		e.serial = true
		return e
	}
	e.buckets = make([][]staged, e.numChunks*workers)
	e.initShards()
	for w := 0; w < workers; w++ {
		e.start[w] = make(chan struct{}, 1)
		go func(w int) {
			for {
				select {
				case <-e.start[w]:
					e.done <- e.runWorker(w)
				case <-e.stop:
					return
				}
			}
		}(w)
	}
	return e
}

func (e *engine) close() { close(e.stop) }

// initShards cuts the vertex range into contiguous receiver shards of
// roughly equal adjacency mass (degree+1 per vertex, so isolated vertices
// still spread): incoming-message load is proportional to degree under
// broadcasts, and a static degree-balanced cut keeps hub-heavy graphs from
// serializing delivery on one worker. Shard boundaries affect load balance
// only, never outputs — each receiver is owned by exactly one worker.
func (e *engine) initShards() {
	n := len(e.progs)
	e.shardOf = make([]int32, n)
	e.shardLo = make([]int32, e.workers+1)
	total := int64(2*e.nw.G.M() + n)
	cum := int64(0)
	s := 0
	for v := 0; v < n; v++ {
		if s+1 < e.workers && cum >= total*int64(s+1)/int64(e.workers) {
			s++
			e.shardLo[s] = int32(v)
		}
		e.shardOf[v] = int32(s)
		cum += int64(e.offsets[v+1]-e.offsets[v]) + 1
	}
	for t := s + 1; t <= e.workers; t++ {
		e.shardLo[t] = int32(n)
	}
}

// runWorker executes the dispatched phase, forwarding a recovered panic so
// Program bugs surface on the coordinating goroutine as they always have.
func (e *engine) runWorker(w int) (panicked any) {
	defer func() { panicked = recover() }()
	e.phase(w)
	return nil
}

// runPhase runs f on every pool worker and blocks until all finish. The
// start/done channel pair orders the coordinator's writes (phase, segment
// bounds, buffer swaps) before the workers' reads and vice versa.
func (e *engine) runPhase(f func(worker int)) {
	e.phase = f
	e.cursor.Store(0)
	for w := 0; w < e.workers; w++ {
		e.start[w] <- struct{}{}
	}
	var panicked any
	for w := 0; w < e.workers; w++ {
		if p := <-e.done; p != nil {
			panicked = p
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// runRound executes one synchronous round: step phase, then the combined
// delivery+compaction phase, then the inbox generation swap and active-list
// concatenation on the coordinator. Rounds whose active list has shrunk to at
// most batchLimit nodes fuse into the serial path instead — permanently,
// since the active list never grows — so a long low-traffic tail costs zero
// pool wake-ups (see BatchThreshold).
func (e *engine) runRound() {
	if e.serial || len(e.active) <= e.batchLimit {
		e.enterSerial()
		e.runRoundSerial()
		return
	}
	e.numChunks = (len(e.active) + workerChunk - 1) / workerChunk
	e.runPhase(e.stepPhase)
	e.prepareSegments()
	e.runPhase(e.deliverPhase)
	// Swap inbox generations: last round's receive buffers become this
	// round's (cleared) send buffers, reusing their backing arrays.
	e.inboxes, e.nextInboxes = e.nextInboxes, e.inboxes
	// Concatenate the per-segment compactions. Each segment was compacted
	// in place, so the copy destination never overtakes its source.
	kept := e.active[:0]
	for w := 0; w < e.workers; w++ {
		lo := e.segBounds[w]
		kept = append(kept, e.active[lo:lo+e.segLen[w]]...)
	}
	e.active = kept
}

// stepPhase claims chunks of the active list and steps their nodes, staging
// every outgoing message into this chunk's buckets.
func (e *engine) stepPhase(int) {
	for {
		lo := e.cursor.Add(workerChunk) - workerChunk
		if lo >= int64(len(e.active)) {
			return
		}
		hi := lo + workerChunk
		if hi > int64(len(e.active)) {
			hi = int64(len(e.active))
		}
		base := int(lo/workerChunk) * e.workers
		for _, v32 := range e.active[lo:hi] {
			v := int(v32)
			out, halt := e.progs[v].Step(e.round, e.inboxes[v])
			e.halts[v] = halt
			if len(out) > 0 {
				e.stage(base, v, out)
			}
		}
	}
}

// stage routes one node's outbox into the staging buckets of its chunk
// (bucket index base+shard). A Broadcast on a degree-0 vertex stages — and
// counts — nothing; any other out-of-range port is a Program bug and
// panics, including ports on degree-0 vertices where no send is valid.
func (e *engine) stage(base, v int, out []Outbound) {
	lo, hi := e.offsets[v], e.offsets[v+1]
	deg := int(hi - lo)
	for _, o := range out {
		if o.Port == Broadcast {
			for i := lo; i < hi; i++ {
				w := e.nbrs[i]
				b := base + int(e.shardOf[w])
				e.buckets[b] = append(e.buckets[b], staged{to: w, port: e.mirror[i], msg: o.Msg})
			}
			continue
		}
		if o.Port < 0 || o.Port >= deg {
			panic(fmt.Sprintf("local: node %d (degree %d) sent to invalid port %d", v, deg, o.Port))
		}
		i := lo + int32(o.Port)
		w := e.nbrs[i]
		b := base + int(e.shardOf[w])
		e.buckets[b] = append(e.buckets[b], staged{to: w, port: e.mirror[i], msg: o.Msg})
	}
}

// enterSerial switches a pooled engine into fused serial execution. The
// parked pool workers are never dispatched again and are torn down by close
// as usual. Buffer hygiene is runRoundSerial's job: its transition into
// dirty tracking re-establishes the round invariant regardless of what state
// the pooled rounds left the write generation in.
func (e *engine) enterSerial() {
	if e.serial {
		return
	}
	e.serial = true
	// Per-shard counters from the last pooled round are stale; the serial
	// path only ever writes slot 0.
	clear(e.shardMsgs)
}

// runRoundSerial runs one round inline on the coordinator: no staging hop,
// no pool dispatch. Stepping the active list in ascending order makes the
// direct delivery order byte-for-byte the order the sharded path reproduces
// (the cross-GOMAXPROCS and batching tests hold the two paths against each
// other).
//
// Receive-buffer hygiene comes in two regimes. Big serial rounds — a
// single-worker engine whose active list still spans the graph — blanket-
// clear the write generation up front: at thousands of messages a round,
// one sequential O(n) sweep is cheaper than a per-message dirty check. Once
// the active list fits under batchLimit the round flips permanently to
// two-generation dirty-receiver tracking (the active list never grows), and
// from then on each fused round touches only dirty buffers, costing
// O(active + messages) instead of O(n).
func (e *engine) runRoundSerial() {
	track := e.dirtyKnown
	if !track && e.batchLimit > 0 && len(e.active) <= e.batchLimit {
		// One-time transition into the fused low-traffic tail: establish the
		// invariant "nextInboxes fully empty, dirtyNext empty, dirtyCur names
		// exactly the non-empty inboxes buffers". This is the tail's single
		// O(n) step.
		for v := range e.nextInboxes {
			e.nextInboxes[v] = e.nextInboxes[v][:0]
		}
		e.dirtyNext = e.dirtyNext[:0]
		e.dirtyCur = e.dirtyCur[:0]
		for v := range e.inboxes {
			if len(e.inboxes[v]) > 0 {
				e.dirtyCur = append(e.dirtyCur, int32(v))
			}
		}
		e.dirtyKnown = true
		track = true
	} else if !track {
		// High-traffic serial round: last round's consumed receive buffers
		// become this round's write generation via a wholesale clear.
		for v := range e.nextInboxes {
			e.nextInboxes[v] = e.nextInboxes[v][:0]
		}
	}
	count := 0
	for _, v32 := range e.active {
		v := int(v32)
		out, halt := e.progs[v].Step(e.round, e.inboxes[v])
		e.halts[v] = halt
		count += e.deliverDirect(v, out, track)
	}
	e.shardMsgs[0] = count
	if track {
		// Drain the read generation (its messages are consumed) so it
		// re-enters service as an all-empty write generation, then swap
		// buffers and dirty lists together — re-establishing the invariant
		// for the next round.
		for _, v := range e.dirtyCur {
			e.inboxes[v] = e.inboxes[v][:0]
		}
		e.dirtyCur = e.dirtyCur[:0]
		e.dirtyCur, e.dirtyNext = e.dirtyNext, e.dirtyCur
	}
	e.inboxes, e.nextInboxes = e.nextInboxes, e.inboxes
	kept := e.active[:0]
	for _, v := range e.active {
		if !e.halts[v] {
			kept = append(kept, v)
		}
	}
	e.active = kept
}

// deliverDirect routes one node's outbox straight into the receive buffers
// (serial path only), returning the number of messages delivered. Port
// semantics match stage exactly. With track set, each receiver joins the
// round's dirty list on its first message — what lets the fused tail clear
// only touched buffers; big serial rounds pass track=false and rely on the
// blanket clear instead.
func (e *engine) deliverDirect(v int, out []Outbound, track bool) int {
	lo, hi := e.offsets[v], e.offsets[v+1]
	deg := int(hi - lo)
	count := 0
	for _, o := range out {
		if o.Port == Broadcast {
			for i := lo; i < hi; i++ {
				w := e.nbrs[i]
				if track && len(e.nextInboxes[w]) == 0 {
					e.dirtyNext = append(e.dirtyNext, w)
				}
				e.nextInboxes[w] = append(e.nextInboxes[w], Inbound{Port: int(e.mirror[i]), Msg: o.Msg})
			}
			count += deg
			continue
		}
		if o.Port < 0 || o.Port >= deg {
			panic(fmt.Sprintf("local: node %d (degree %d) sent to invalid port %d", v, deg, o.Port))
		}
		i := lo + int32(o.Port)
		w := e.nbrs[i]
		if track && len(e.nextInboxes[w]) == 0 {
			e.dirtyNext = append(e.dirtyNext, w)
		}
		e.nextInboxes[w] = append(e.nextInboxes[w], Inbound{Port: int(e.mirror[i]), Msg: o.Msg})
		count++
	}
	return count
}

// prepareSegments splits the active list into one contiguous compaction
// segment per worker for the delivery phase.
func (e *engine) prepareSegments() {
	n := len(e.active)
	per := (n + e.workers - 1) / e.workers
	for s := 0; s <= e.workers; s++ {
		b := s * per
		if b > n {
			b = n
		}
		e.segBounds[s] = b
	}
}

// deliverPhase is worker w's half of the delivery round: drain the staged
// buckets addressed to its receiver shard in ascending chunk order, then
// compact its segment of the active list in place.
func (e *engine) deliverPhase(w int) {
	var t0 time.Time
	if e.shardNs != nil {
		t0 = time.Now()
	}
	// All of this shard's receive buffers are cleared — halted nodes still
	// receive deliveries (never read, as before), and clearing keeps those
	// bounded to one round's worth instead of accumulating for the run.
	for v := e.shardLo[w]; v < e.shardLo[w+1]; v++ {
		e.nextInboxes[v] = e.nextInboxes[v][:0]
	}
	count := 0
	for c := 0; c < e.numChunks; c++ {
		idx := c*e.workers + w
		b := e.buckets[idx]
		for i := range b {
			e.nextInboxes[b[i].to] = append(e.nextInboxes[b[i].to], Inbound{Port: int(b[i].port), Msg: b[i].msg})
		}
		count += len(b)
		clear(b) // drop message references; keep capacity for the next round
		e.buckets[idx] = b[:0]
	}
	e.shardMsgs[w] = count

	lo, hi := e.segBounds[w], e.segBounds[w+1]
	seg := e.active[lo:hi]
	k := 0
	for _, v := range seg {
		if !e.halts[v] {
			seg[k] = v
			k++
		}
	}
	e.segLen[w] = k
	if e.shardNs != nil {
		e.shardNs[w] += time.Since(t0).Nanoseconds()
	}
}

// roundMessages aggregates the per-shard delivery counters into the round's
// total. The sum is independent of sharding: every staged message is
// counted exactly once.
func (e *engine) roundMessages() int {
	total := 0
	for _, c := range e.shardMsgs {
		total += c
	}
	return total
}

// outputs collects every node's Output in a chunked pool phase. Programs
// are independent state machines, so reading them in parallel is safe; slot
// v is written by exactly one worker.
func (e *engine) outputs() []any {
	n := len(e.progs)
	out := make([]any, n)
	if e.workers == 1 {
		for v := 0; v < n; v++ {
			out[v] = e.progs[v].Output()
		}
		return out
	}
	e.runPhase(func(int) {
		for {
			lo := e.cursor.Add(workerChunk) - workerChunk
			if lo >= int64(n) {
				return
			}
			hi := lo + workerChunk
			if hi > int64(n) {
				hi = int64(n)
			}
			for v := lo; v < hi; v++ {
				out[v] = e.progs[v].Output()
			}
		}
	})
	return out
}

// RunSync executes one Program instance per node until every node halts (or
// maxRounds elapses, an error). It returns each node's Output and charges
// the ledger under the given phase name.
//
// Execution engine: a two-phase sharded message plane over a bounded pool
// of min(GOMAXPROCS, n) long-lived workers (see engine). Node steps,
// message routing, message delivery, halt compaction and output collection
// all run on the pool; the coordinator only sequences phases, so the round
// pipeline is fully parallel. Executions are deterministic for
// deterministic programs at any GOMAXPROCS: staging buckets are keyed by
// the position of a node's chunk in the active list and drained in that
// order, reproducing the sequential engine's ascending-vertex delivery
// byte for byte. Receiver-side ports are resolved through the graph's
// precomputed CSR mirror array (graph.Mirror), not a per-message binary
// search.
//
// Factory and Init run on the calling goroutine. Step and Output run on
// pool workers — at most one per node at a time, so a Program needs no
// internal locking, but distinct nodes' Programs must not share mutable
// state.
//
// Round accounting follows the standard send/receive convention: messages
// sent in step k are received at the end of round k and consumed by step
// k+1, so an execution of S steps corresponds to S-1 communication rounds
// (the final step is the output phase).
//
// maxRounds — in practice the algorithm's declared RoundBound(n, maxDeg)
// from the registry — caps the execution, and together with the live
// active-list size drives round batching: bounded long-tail executions
// (one color class active per round for Δ²-scale rounds, say) spend almost
// all their rounds below the BatchThreshold fusion cutoff, where the engine
// runs them inline with no per-round pool wake-ups at all. Fusion never
// changes outputs, charges, or message counts, only scheduling.
//
// Cancellation is cooperative and per-round: ctx is checked at the top of
// every round, so a cancelled execution stops within one round, returns
// ctx.Err(), and leaves no worker goroutines behind (the pool is torn down
// on every return path). Partial executions charge nothing to the ledger; a
// traced ledger keeps the engine rounds they ran.
func RunSync(ctx context.Context, nw *Network, ledger *Ledger, phase string, maxRounds int,
	factory func(v int) Program) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := nw.G.N()
	e := newEngine(nw)
	defer e.close()
	if ledger != nil && ledger.traced && !e.serial {
		e.shardNs = make([]int64, e.workers)
	}
	for v := 0; v < n; v++ {
		e.progs[v] = factory(v)
		e.progs[v].Init(NodeInfo{V: v, ID: nw.ID[v], Degree: nw.G.Degree(v), N: n})
	}
	rounds := 0
	for e.round = 1; len(e.active) > 0; e.round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.round > maxRounds {
			return nil, fmt.Errorf("local: exceeded maxRounds=%d in phase %q", maxRounds, phase)
		}
		active := len(e.active)
		rounds++
		e.runRound()
		if ledger != nil {
			ledger.recordRound(phase, active, e.roundMessages())
		}
	}
	if e.shardNs != nil {
		ledger.shardDelivery(phase, e.shardNs)
	}
	if ledger != nil {
		charge := rounds - 1
		if charge < 0 {
			charge = 0
		}
		ledger.Charge(phase, charge)
	}
	return e.outputs(), nil
}
