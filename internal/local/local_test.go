package local

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"distcolor/internal/gen"
)

// echoProgram sends its ID once and records what it hears.
type echoProgram struct {
	info  NodeInfo
	heard []int
}

func (p *echoProgram) Init(info NodeInfo) { p.info = info }

func (p *echoProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	switch round {
	case 1:
		return []Outbound{{Port: Broadcast, Msg: p.info.ID}}, false
	default:
		for _, in := range inbox {
			p.heard = append(p.heard, in.Msg.(int))
		}
		return nil, true
	}
}

func (p *echoProgram) Output() any { return p.heard }

func TestRunSyncEcho(t *testing.T) {
	g := gen.Cycle(5)
	nw := NewNetwork(g)
	var ledger Ledger
	outs, err := RunSync(context.Background(), nw, &ledger, "echo", 10, func(v int) Program { return &echoProgram{} })
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range outs {
		heard := o.([]int)
		if len(heard) != 2 {
			t.Fatalf("node %d heard %d messages, want 2", v, len(heard))
		}
		want := map[int]bool{nw.ID[(v+1)%5]: true, nw.ID[(v+4)%5]: true}
		for _, id := range heard {
			if !want[id] {
				t.Errorf("node %d heard unexpected id %d", v, id)
			}
		}
	}
	if ledger.Rounds() != 1 {
		t.Errorf("ledger rounds=%d, want 1 (one broadcast round)", ledger.Rounds())
	}
	// every node broadcasts once on a cycle: 5 nodes × 2 neighbors
	if ledger.Messages() != 10 {
		t.Errorf("messages=%d, want 10", ledger.Messages())
	}
	if ledger.MaxRoundMessages() != 10 {
		t.Errorf("max round messages=%d, want 10", ledger.MaxRoundMessages())
	}
}

func TestRunSyncDeterministic(t *testing.T) {
	g := gen.Grid(4, 5)
	nw := NewNetwork(g)
	run := func() []any {
		outs, err := RunSync(context.Background(), nw, nil, "", 10, func(v int) Program { return &echoProgram{} })
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("RunSync not deterministic")
	}
}

func TestRunSyncMaxRounds(t *testing.T) {
	// a program that never halts must trip maxRounds
	g := gen.Path(3)
	nw := NewNetwork(g)
	_, err := RunSync(context.Background(), nw, nil, "forever", 5, func(v int) Program { return &foreverProgram{} })
	if err == nil {
		t.Error("expected maxRounds error")
	}
}

type foreverProgram struct{}

func (p *foreverProgram) Init(NodeInfo) {}
func (p *foreverProgram) Step(int, []Inbound) ([]Outbound, bool) {
	return nil, false
}
func (p *foreverProgram) Output() any { return nil }

func TestLedger(t *testing.T) {
	var l Ledger
	l.Charge("a", 3)
	l.Charge("a", 2)
	l.Charge("b", 1)
	l.Charge("a", 4)
	if l.Rounds() != 10 {
		t.Errorf("total=%d, want 10", l.Rounds())
	}
	ph := l.Phases()
	if len(ph) != 3 || ph[0].Rounds != 5 || ph[1].Phase != "b" {
		t.Errorf("phases wrong: %+v", ph)
	}
	agg := l.ByPhase()
	if agg[0].Phase != "a" || agg[0].Rounds != 9 {
		t.Errorf("ByPhase wrong: %+v", agg)
	}
}

func TestNetworkValidate(t *testing.T) {
	g := gen.Path(4)
	nw := NewNetwork(g)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	nw.ID[0] = nw.ID[1]
	if err := nw.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	nw2 := NewShuffledNetwork(g, rng)
	if err := nw2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBallCollectionEquivalence(t *testing.T) {
	// The genuine message-passing flooding and the central oracle must
	// produce identical induced balls.
	rng := rand.New(rand.NewPCG(2, 3))
	graphs := []struct {
		name string
		nw   *Network
	}{
		{"cycle9", NewShuffledNetwork(gen.Cycle(9), rng)},
		{"grid4x4", NewShuffledNetwork(gen.Grid(4, 4), rng)},
		{"tree", NewShuffledNetwork(gen.RandomTree(15, rng), rng)},
		{"gnp", NewShuffledNetwork(gen.GNP(12, 0.3, rng), rng)},
	}
	for _, tc := range graphs {
		for _, radius := range []int{0, 1, 2, 3} {
			var l1, l2 Ledger
			syncBalls, err := CollectBallsSync(context.Background(), tc.nw, &l1, "sync", radius)
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, radius, err)
			}
			centralBalls := CollectBallsCentral(tc.nw, &l2, "central", radius, nil)
			for v := range syncBalls {
				if !reflect.DeepEqual(syncBalls[v], centralBalls[v]) {
					t.Fatalf("%s r=%d v=%d: sync=%+v central=%+v",
						tc.name, radius, v, syncBalls[v], centralBalls[v])
				}
			}
			if l1.Rounds() != radius+1 || l2.Rounds() != radius+1 {
				t.Errorf("%s r=%d: rounds sync=%d central=%d, want %d",
					tc.name, radius, l1.Rounds(), l2.Rounds(), radius+1)
			}
		}
	}
}

func TestBallMask(t *testing.T) {
	g := gen.Path(7)
	nw := NewNetwork(g)
	mask := []bool{true, true, true, false, true, true, true}
	balls := CollectBallsCentral(nw, nil, "", 5, mask)
	// vertex 0's masked ball must not cross the masked-out vertex 3
	b0 := balls[0]
	if len(b0.IDs) != 3 {
		t.Errorf("masked ball of 0 has %d ids, want 3 (0,1,2)", len(b0.IDs))
	}
	if len(balls[3].IDs) != 0 {
		t.Errorf("ball of masked-out vertex should be empty")
	}
}

func TestBallToGraph(t *testing.T) {
	g := gen.Cycle(6)
	nw := NewNetwork(g)
	balls := CollectBallsCentral(nw, nil, "", 2, nil)
	bg, ids := BallToGraph(balls[0])
	if bg.N() != 5 || bg.M() != 4 {
		t.Errorf("radius-2 ball of C6 should be P5: n=%d m=%d", bg.N(), bg.M())
	}
	if len(ids) != 5 {
		t.Errorf("ids len=%d", len(ids))
	}
}

func TestBallFullGraph(t *testing.T) {
	// radius ≥ diameter: ball is the whole component
	g := gen.Grid(3, 3)
	nw := NewNetwork(g)
	balls := CollectBallsCentral(nw, nil, "", 10, nil)
	for v := range balls {
		if len(balls[v].IDs) != 9 || len(balls[v].Edges) != g.M() {
			t.Fatalf("saturated ball wrong at %d: %d ids %d edges",
				v, len(balls[v].IDs), len(balls[v].Edges))
		}
	}
}
