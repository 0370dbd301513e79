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

func TestLedgerProgressObserver(t *testing.T) {
	var got []PhaseCost
	var totals []int
	tr := &RoundTrace{}
	OnCharge(tr, func(phase string, delta, total int) {
		got = append(got, PhaseCost{Phase: phase, Rounds: delta})
		totals = append(totals, total)
	})
	l := &Ledger{Trace: tr}
	l.Charge("a", 2)
	l.Charge("a", 3) // merged into the same phase entry, still observed
	l.Charge("b", 0) // zero charges are not observed
	l.Charge("c", 1)
	// A sub-run sharing the trace reports live with the run-wide total;
	// merging its ledger afterwards must not report the charges again.
	sub := &Ledger{Trace: tr}
	sub.Charge("d", 4)
	l.Merge("sub/", sub)
	want := []PhaseCost{{Phase: "a", Rounds: 2}, {Phase: "a", Rounds: 3}, {Phase: "c", Rounds: 1}, {Phase: "d", Rounds: 4}}
	if len(got) != len(want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if totals[len(totals)-1] != l.Rounds() || l.Rounds() != 10 || tr.Rounds() != 10 {
		t.Fatalf("totals %v, ledger %d, trace %d", totals, l.Rounds(), tr.Rounds())
	}
	if prev := OnCharge(tr, nil); prev == nil {
		t.Fatal("OnCharge did not return the previous observer")
	}
	l.Charge("e", 1)
	if len(got) != len(want) {
		t.Fatalf("detached observer still called: %v", got)
	}
}
