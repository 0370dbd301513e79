package local

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"distcolor/internal/graph"
)

// spinProgram never halts: each round it broadcasts a token, so the engine
// keeps scheduling it until maxRounds or cancellation.
type spinProgram struct{}

func (p *spinProgram) Init(NodeInfo) {}
func (p *spinProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	return []Outbound{{Port: Broadcast, Msg: round}}, false
}
func (p *spinProgram) Output() any { return nil }

func ringNetwork(tb testing.TB, n int) *Network {
	tb.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.AddEdge(v, (v+1)%n); err != nil {
			tb.Fatal(err)
		}
	}
	return NewNetwork(b.Graph())
}

func TestRunSyncCancelled(t *testing.T) {
	nw := ringNetwork(t, 64)
	// Pre-cancelled: no rounds run, ctx.Err() comes straight back.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ledger := &Ledger{}
	if _, err := RunSync(ctx, nw, ledger, "spin", 1000, func(int) Program { return &spinProgram{} }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunSync returned %v", err)
	}
	if ledger.Rounds() != 0 {
		t.Fatalf("cancelled run charged %d rounds", ledger.Rounds())
	}
}

func TestRunSyncCancelMidRunNoLeak(t *testing.T) {
	nw := ringNetwork(t, 256)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunSync(ctx, nw, nil, "spin", 1<<30, func(int) Program { return &spinProgram{} })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunSync returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled RunSync never returned")
	}
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		select {
		case <-deadline:
			t.Fatalf("worker goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestLedgerProgressObserver checks the live observer of a traced ledger:
// it survives Begin, sees every non-zero charge with the running total, and
// a sub-run charging the same ledger (here a RunSync execution) reports
// live and is booked once, under its own phase name.
func TestLedgerProgressObserver(t *testing.T) {
	var got []PhaseCost
	var totals []int
	l := &Ledger{}
	OnCharge(l, func(phase string, delta, total int) {
		got = append(got, PhaseCost{Phase: phase, Rounds: delta})
		totals = append(totals, total)
	})
	l.Begin()
	l.Charge("a", 2)
	l.Charge("a", 3) // merged into the same phase entry, still observed
	l.Charge("b", 0) // zero charges are not observed
	l.Charge("c", 1)
	// 5 engine steps: 4 LOCAL rounds charged to "d".
	if _, err := RunSync(nil, ringNetwork(t, 8), l, "d", 100, func(int) Program {
		return &chatterProgram{limit: 5}
	}); err != nil {
		t.Fatal(err)
	}
	want := []PhaseCost{{Phase: "a", Rounds: 2}, {Phase: "a", Rounds: 3}, {Phase: "c", Rounds: 1}, {Phase: "d", Rounds: 4}}
	if len(got) != len(want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if totals[len(totals)-1] != l.Rounds() || l.Rounds() != 10 {
		t.Fatalf("totals %v, ledger %d", totals, l.Rounds())
	}
	by := l.ByPhase()
	if by[0] != (PhaseCost{Phase: "a", Rounds: 5}) || by[1] != (PhaseCost{Phase: "d", Rounds: 4}) {
		t.Fatalf("ByPhase = %+v, want a=5 then d=4", by)
	}
	if prev := OnCharge(l, nil); prev == nil {
		t.Fatal("OnCharge did not return the previous observer")
	}
	l.Charge("e", 1)
	if len(got) != len(want) {
		t.Fatalf("detached observer still called: %v", got)
	}
}

// cancelAtProgram stops its run from inside: at round at it cancels the
// execution's context, and never halts on its own.
type cancelAtProgram struct {
	at     int
	cancel context.CancelFunc
}

func (p *cancelAtProgram) Init(NodeInfo) {}
func (p *cancelAtProgram) Step(round int, _ []Inbound) ([]Outbound, bool) {
	if round == p.at {
		p.cancel()
	}
	return []Outbound{{Port: Broadcast, Msg: round}}, false
}
func (p *cancelAtProgram) Output() any { return nil }

// TestTracedCancelKeepsEnginePhase checks that a traced RunSync cancelled
// mid-run keeps its phase in Report: the engine rounds it ran, with 0
// charged rounds, ordered among the charged phases by ByPhase's rule.
func TestTracedCancelKeepsEnginePhase(t *testing.T) {
	l := &Ledger{}
	l.Begin()
	l.Charge("before", 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const at = 4
	_, err := RunSync(ctx, ringNetwork(t, 16), l, "cut", 1000, func(int) Program {
		return &cancelAtProgram{at: at, cancel: cancel}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSync returned %v, want context.Canceled", err)
	}
	if l.Rounds() != 3 || len(l.ByPhase()) != 1 {
		t.Fatalf("cancelled execution charged: rounds %d, phases %+v", l.Rounds(), l.ByPhase())
	}
	rep := l.Report("x")
	if len(rep.Phases) != 2 {
		t.Fatalf("report phases %+v, want the charged one and the cancelled one", rep.Phases)
	}
	if p := rep.Phases[0]; p.Phase != "before" || p.Rounds != 3 || p.EngineRounds != 0 {
		t.Fatalf("phase 0 = %+v, want before with 3 charged rounds", p)
	}
	p := rep.Phases[1]
	if p.Phase != "cut" || p.Rounds != 0 || p.EngineRounds != at || p.Messages != at*32 {
		t.Fatalf("phase 1 = %+v, want cut with %d engine rounds, %d messages, 0 charged", p, at, at*32)
	}
	if rep.Rounds != 3 || rep.Messages != l.Messages() {
		t.Fatalf("report totals %d rounds, %d messages; ledger %d, %d", rep.Rounds, rep.Messages, l.Rounds(), l.Messages())
	}
}
