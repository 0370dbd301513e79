package local

import (
	"testing"

	"distcolor/internal/gen"
)

// chatterProgram broadcasts every round until round limit, then halts.
type chatterProgram struct{ limit int }

func (p *chatterProgram) Init(NodeInfo) {}

func (p *chatterProgram) Step(round int, _ []Inbound) ([]Outbound, bool) {
	if round >= p.limit {
		return nil, true
	}
	return []Outbound{{Port: Broadcast, Msg: round}}, false
}

func (p *chatterProgram) Output() any { return nil }

// tracedLedger returns a ledger that Begin has marked traced.
func tracedLedger() *Ledger {
	l := &Ledger{}
	l.Begin()
	return l
}

// TestTraceChargeAggregation checks that report phases mirror
// Ledger.ByPhase: non-consecutive repeats sum, zero-round charges still
// create entries, and the report orders by descending rounds then name.
func TestTraceChargeAggregation(t *testing.T) {
	l := tracedLedger()
	l.Charge("a", 3)
	l.Charge("b", 5)
	l.Charge("a", 2)
	l.Charge("zero", 0)
	rep := l.Report("x")
	if rep.Rounds != l.Rounds() {
		t.Fatalf("trace rounds = %d, ledger = %d", rep.Rounds, l.Rounds())
	}
	by := l.ByPhase()
	if len(rep.Phases) != len(by) {
		t.Fatalf("trace has %d phases, ByPhase has %d", len(rep.Phases), len(by))
	}
	for i := range by {
		if rep.Phases[i].Phase != by[i].Phase || rep.Phases[i].Rounds != by[i].Rounds {
			t.Errorf("phase %d: trace (%s,%d) vs ByPhase (%s,%d)",
				i, rep.Phases[i].Phase, rep.Phases[i].Rounds, by[i].Phase, by[i].Rounds)
		}
	}
}

// TestTraceSampleStride drives one phase far past the sample cap and
// checks the deterministic compaction: bounded retention, power-of-two
// stride, retained rounds exactly the strided subsequence, and exact
// message/max-active totals regardless of what was dropped.
func TestTraceSampleStride(t *testing.T) {
	l := tracedLedger()
	const rounds = 10 * traceSampleCap
	totalMsgs := 0
	for r := 1; r <= rounds; r++ {
		l.recordRound("p", rounds-r+1, r)
		totalMsgs += r
	}
	rep := l.Report("x")
	if len(rep.Phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(rep.Phases))
	}
	p := rep.Phases[0]
	if p.EngineRounds != rounds || p.Messages != totalMsgs || p.MaxActive != rounds || rep.Messages != totalMsgs {
		t.Fatalf("totals: %+v, want engineRounds=%d messages=%d maxActive=%d", p, rounds, totalMsgs, rounds)
	}
	if len(p.Samples) > traceSampleCap {
		t.Fatalf("retained %d samples, cap is %d", len(p.Samples), traceSampleCap)
	}
	if p.SampleStride&(p.SampleStride-1) != 0 || p.SampleStride < 1 {
		t.Fatalf("stride %d is not a power of two", p.SampleStride)
	}
	for i, s := range p.Samples {
		wantRound := i*p.SampleStride + 1
		if s.Round != wantRound {
			t.Fatalf("sample %d has round %d, want %d (stride %d)", i, s.Round, wantRound, p.SampleStride)
		}
		if s.Messages != wantRound {
			t.Fatalf("sample %d carries messages %d, want %d", i, s.Messages, wantRound)
		}
	}
}

// TestTraceShardDelivery checks shard timing accumulation across
// executions with different worker counts and the report's imbalance.
func TestTraceShardDelivery(t *testing.T) {
	l := tracedLedger()
	l.shardDelivery("p", []int64{100, 100})
	l.shardDelivery("p", []int64{100, 100, 200}) // wider engine later in the phase
	rep := l.Report("x")
	p := rep.Phases[0]
	want := []int64{200, 200, 200}
	if len(p.Shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(p.Shards), len(want))
	}
	for i, s := range p.Shards {
		if s.Shard != i || s.DeliverNs != want[i] {
			t.Fatalf("shard %d: %+v, want deliver_ns=%d", i, s, want[i])
		}
	}
	// max=200, mean=200 → imbalance 1.
	if rep.ShardImbalance != 1 {
		t.Fatalf("imbalance = %g, want 1", rep.ShardImbalance)
	}
	l2 := tracedLedger()
	l2.shardDelivery("p", []int64{300, 100})
	if got := l2.Report("x").ShardImbalance; got != 1.5 {
		t.Fatalf("imbalance = %g, want 1.5", got)
	}
}

// TestRunSyncRecordsTrace runs the engine on a traced ledger and checks
// the report against the ledger's own accounting exactly.
func TestRunSyncRecordsTrace(t *testing.T) {
	nw := NewNetwork(gen.Cycle(64))
	ledger := tracedLedger()
	_, err := RunSync(nil, nw, ledger, "flood", 1000, func(v int) Program {
		return &chatterProgram{limit: 5}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ledger.Report("flood")
	if rep.Rounds != ledger.Rounds() || rep.Messages != ledger.Messages() || ledger.Messages() == 0 {
		t.Fatalf("report %d rounds, %d messages; ledger %d, %d",
			rep.Rounds, rep.Messages, ledger.Rounds(), ledger.Messages())
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != "flood" {
		t.Fatalf("unexpected phases: %+v", rep.Phases)
	}
	if rep.Phases[0].Messages != ledger.Messages() {
		t.Fatalf("phase messages %d, ledger %d", rep.Phases[0].Messages, ledger.Messages())
	}
	if rep.Phases[0].EngineRounds != rep.Phases[0].Rounds+1 {
		t.Fatalf("engine rounds %d, want charged rounds %d + 1 (final output step)",
			rep.Phases[0].EngineRounds, rep.Phases[0].Rounds)
	}
}
