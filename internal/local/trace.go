package local

import (
	"sort"
	"time"
)

// traceSampleCap bounds the retained per-phase round samples. When a phase
// exceeds it, the recorder compacts deterministically: it keeps every other
// retained sample and doubles the sampling stride, so a million-round phase
// retains ≤ traceSampleCap evenly strided samples and the retained set is a
// pure function of the round sequence (no randomness, no clock).
const traceSampleCap = 512

// RoundSample is one retained engine round inside a phase: the active-list
// size going into the round and the messages delivered by it.
type RoundSample struct {
	// Round is the 1-based engine round index within the phase.
	Round int `json:"round"`
	// Active is the number of non-halted nodes stepping this round.
	Active int `json:"active"`
	// Messages is the number of point-to-point messages delivered.
	Messages int `json:"messages"`
}

// tracePhase is what a traced ledger records about one phase name beyond
// its charged rounds (those stay in Ledger.phases alone): engine rounds,
// messages, samples and shard timings from the message-passing engine, and
// the phase's wall clock. All of it is informational.
type tracePhase struct {
	name         string
	engineRounds int
	messages     int
	maxActive    int
	stride       int
	samples      []RoundSample
	shardNs      []int64

	// Wall-clock attribution (nondeterministic like shardNs): firstNs and
	// lastNs bound the phase's activity, busyNs sums the charge-to-charge
	// intervals attributed to it (see Ledger.traceCharge).
	firstNs int64
	lastNs  int64
	busyNs  int64
}

// OnCharge sets fn as l's live progress observer and returns the previous
// one (nil when unset). Once Begin has marked l traced, fn sees every
// non-zero charge as it lands: phase is the charged phase, delta the rounds
// just charged, total the ledger's running total. It runs synchronously on
// the charging goroutine and must be fast and non-blocking. OnCharge is a
// function rather than a method so the public RoundTrace alias does not
// grow a second way to observe progress.
func OnCharge(l *Ledger, fn func(phase string, delta, total int)) func(phase string, delta, total int) {
	prev := l.onCharge
	l.onCharge = fn
	return prev
}

// Begin clears l and marks it traced: from here on it also records each
// phase's engine rounds, samples, shard timings and wall clock (measured
// from this call), and reports charges to its OnCharge observer, which
// Begin keeps.
func (l *Ledger) Begin() {
	*l = Ledger{traced: true, lastT: time.Now(), onCharge: l.onCharge}
}

func (l *Ledger) tracePhase(name string) *tracePhase {
	if l.byName == nil {
		l.byName = map[string]*tracePhase{}
	}
	p := l.byName[name]
	if p == nil {
		p = &tracePhase{name: name, stride: 1}
		l.byName[name] = p
		l.extras = append(l.extras, p)
	}
	return p
}

// traceCharge is the traced half of Charge.
func (l *Ledger) traceCharge(phase string, rounds int) {
	p := l.tracePhase(phase)
	// Attribute the wall-clock interval since the previous charge (or
	// Begin) to the charged phase: charges land when a phase's work is
	// done, so the elapsed time since the last one is the work just charged.
	now := time.Now()
	if p.firstNs == 0 {
		p.firstNs = l.lastT.UnixNano()
	}
	p.lastNs = now.UnixNano()
	p.busyNs += now.Sub(l.lastT).Nanoseconds()
	l.lastT = now
	if l.onCharge != nil && rounds > 0 {
		l.onCharge(phase, rounds, l.total)
	}
}

// engineRound records one executed engine round of a traced ledger:
// active nodes going in, messages delivered coming out. Sampling is
// strided once the phase outgrows traceSampleCap (see the constant).
func (l *Ledger) engineRound(phase string, active, messages int) {
	p := l.tracePhase(phase)
	p.engineRounds++
	p.messages += messages
	if active > p.maxActive {
		p.maxActive = active
	}
	if (p.engineRounds-1)%p.stride != 0 {
		return
	}
	if len(p.samples) == traceSampleCap {
		kept := p.samples[:0]
		for i := 0; i < traceSampleCap; i += 2 {
			kept = append(kept, p.samples[i])
		}
		p.samples = kept
		p.stride *= 2
		if (p.engineRounds-1)%p.stride != 0 {
			return
		}
	}
	p.samples = append(p.samples, RoundSample{Round: p.engineRounds, Active: active, Messages: messages})
}

// shardDelivery folds one engine execution's per-shard delivery-time totals
// (nanoseconds, index = shard) into the phase. Phases executed by engines
// of different worker counts accumulate into the longest shard vector.
func (l *Ledger) shardDelivery(phase string, ns []int64) {
	p := l.tracePhase(phase)
	if len(ns) > len(p.shardNs) {
		grown := make([]int64, len(ns))
		copy(grown, p.shardNs)
		p.shardNs = grown
	}
	for i, v := range ns {
		p.shardNs[i] += v
	}
}

// ShardTrace is one delivery shard's accumulated timing within a phase.
type ShardTrace struct {
	// Shard is the delivery worker index.
	Shard int `json:"shard"`
	// DeliverNs is total wall-clock nanoseconds this shard spent in
	// delivery phases. Timings are measured, not simulated: they vary
	// run-to-run even though everything else in a trace is deterministic.
	DeliverNs int64 `json:"deliver_ns"`
}

// PhaseTrace is one phase of a TraceReport.
type PhaseTrace struct {
	// Phase is the phase name, as charged to the ledger.
	Phase string `json:"phase"`
	// Rounds is the total LOCAL rounds charged to the phase — summed
	// across repeats, exactly Ledger.ByPhase.
	Rounds int `json:"rounds"`
	// EngineRounds counts the message-passing engine rounds executed under
	// this phase name (0 for centrally simulated phases). An S-step engine
	// execution charges S−1 LOCAL rounds, so EngineRounds can exceed
	// Rounds by one per execution.
	EngineRounds int `json:"engine_rounds,omitempty"`
	// Messages is the total messages delivered under this phase.
	Messages int `json:"messages,omitempty"`
	// MaxActive is the largest active-list size observed.
	MaxActive int `json:"max_active,omitempty"`
	// SampleStride is the per-round sampling stride (1 = every round
	// retained; doubles as the phase outgrows the sample cap).
	SampleStride int `json:"sample_stride,omitempty"`
	// Samples holds the retained per-round records.
	Samples []RoundSample `json:"samples,omitempty"`
	// Shards holds per-shard delivery timings (pooled executions only; the
	// serial engine path has a single implicit shard and records none).
	Shards []ShardTrace `json:"shards,omitempty"`
	// StartUnixNs/EndUnixNs bound the phase's wall-clock activity and
	// WallNs sums the charge intervals attributed to it. Like shard
	// timings these are measured, not simulated: informational riders that
	// vary run-to-run while everything else stays deterministic. Present
	// only on a traced ledger (Ledger.Begin).
	StartUnixNs int64 `json:"start_unix_ns,omitempty"`
	EndUnixNs   int64 `json:"end_unix_ns,omitempty"`
	WallNs      int64 `json:"wall_ns,omitempty"`
}

// TraceReport is the wire form of a completed run's trace — the schema
// served by GET /v1/jobs/{id}/trace and written by `distcolor -trace`.
type TraceReport struct {
	// Algorithm is the wire name of the algorithm that ran.
	Algorithm string `json:"algorithm"`
	// Rounds is the run's total LOCAL rounds (== Coloring.Rounds).
	Rounds int `json:"rounds"`
	// Messages is the run's total engine messages (== Coloring.Messages).
	Messages int `json:"messages"`
	// ShardImbalance is max/mean of per-shard delivery time across all
	// phases, ≥ 1 when timings were recorded and 0 otherwise. A value near
	// 1 means the degree-balanced static shard cut is holding up; large
	// values are the signal the ROADMAP's NUMA-pinning item needs.
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
	// Phases is the per-phase breakdown, ordered like Ledger.ByPhase
	// (descending rounds, then name).
	Phases []PhaseTrace `json:"phases"`
	// TraceID is the distributed-trace ID of the request that ran this
	// job, when one was active. Assigned by the caller that owns the
	// span (serve layer / CLI), not by the engine.
	TraceID string `json:"trace_id,omitempty"`
}

// Report builds the wire report: the charged phases of ByPhase, in its
// order and with its round totals, plus any phase the engine ran without a
// charge (a cancelled execution's) at 0 rounds; samples and timings ride
// along.
func (l *Ledger) Report(algorithm string) *TraceReport {
	by := l.byPhase(l.extras)
	rep := &TraceReport{
		Algorithm: algorithm,
		Rounds:    l.total,
		Messages:  l.messages,
		Phases:    make([]PhaseTrace, 0, len(by)),
	}
	for _, pc := range by {
		pt := PhaseTrace{Phase: pc.Phase, Rounds: pc.Rounds}
		if p := l.byName[pc.Phase]; p != nil {
			pt.EngineRounds = p.engineRounds
			pt.Messages = p.messages
			pt.MaxActive = p.maxActive
			pt.StartUnixNs, pt.EndUnixNs, pt.WallNs = p.firstNs, p.lastNs, p.busyNs
			if len(p.samples) > 0 {
				pt.SampleStride = p.stride
				pt.Samples = append([]RoundSample(nil), p.samples...)
			}
			for s, ns := range p.shardNs {
				pt.Shards = append(pt.Shards, ShardTrace{Shard: s, DeliverNs: ns})
			}
		}
		rep.Phases = append(rep.Phases, pt)
	}
	// Shard imbalance across the whole run: fold every phase's per-shard
	// totals into one vector keyed by shard index.
	var byShard []int64
	for _, p := range l.extras {
		for s, ns := range p.shardNs {
			for s >= len(byShard) {
				byShard = append(byShard, 0)
			}
			byShard[s] += ns
		}
	}
	var totalNs, maxNs int64
	for _, ns := range byShard {
		totalNs += ns
		maxNs = max(maxNs, ns)
	}
	if totalNs > 0 {
		rep.ShardImbalance = float64(maxNs) * float64(len(byShard)) / float64(totalNs)
	}
	return rep
}

// byPhase aggregates the charged rounds per phase name, adds each of
// extra's phases that was never charged at 0 rounds, and sorts by
// descending rounds, then name.
func (l *Ledger) byPhase(extra []*tracePhase) []PhaseCost {
	agg := map[string]int{}
	for _, p := range l.phases {
		agg[p.Phase] += p.Rounds
	}
	for _, p := range extra {
		agg[p.name] += 0 // enters an uncharged phase at 0 rounds
	}
	out := make([]PhaseCost, 0, len(agg))
	for ph, r := range agg {
		out = append(out, PhaseCost{Phase: ph, Rounds: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rounds != out[j].Rounds {
			return out[i].Rounds > out[j].Rounds
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}
