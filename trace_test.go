package distcolor_test

import (
	"context"
	"encoding/json"
	"testing"

	"distcolor"
	"distcolor/internal/serve/runcfg"
)

// TestTraceMatchesColoring is the trace recorder's core contract: for every
// registered algorithm, the report built from a WithTrace run agrees
// exactly with the Coloring the run returned — same total rounds, same
// message count, and a per-phase breakdown identical to Coloring.Phases
// (which is Ledger.ByPhase) in both content and order. Live progress is a
// view of the same trace, so its events must add up to the same total.
// Sample and timing data ride along; the round accounting is the part the
// paper's claims rest on, so it must never drift.
func TestTraceMatchesColoring(t *testing.T) {
	for _, a := range distcolor.Algorithms() {
		if a.Smoke == "" {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			g, err := runcfg.Generate(a.Smoke, 1)
			if err != nil {
				t.Fatalf("generating %q: %v", a.Smoke, err)
			}
			trace := &distcolor.RoundTrace{}
			var events []distcolor.PhaseEvent
			col, err := distcolor.Run(context.Background(), g, a.Name,
				distcolor.WithSeed(3), distcolor.WithTrace(trace),
				distcolor.WithProgress(func(e distcolor.PhaseEvent) { events = append(events, e) }))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			sum := 0
			for _, e := range events {
				if e.Algorithm != a.Name {
					t.Fatalf("event credits %q: %+v", e.Algorithm, e)
				}
				if e.Delta <= 0 {
					t.Fatalf("non-positive delta event: %+v", e)
				}
				sum += e.Delta
			}
			if sum != col.Rounds {
				t.Errorf("progress deltas sum to %d, run charged %d", sum, col.Rounds)
			}
			if last := events[len(events)-1]; last.Rounds != col.Rounds {
				t.Errorf("last event total %d ≠ final rounds %d", last.Rounds, col.Rounds)
			}
			rep := trace.Report(a.Name)
			if rep.Algorithm != a.Name {
				t.Errorf("report algorithm = %q, want %q", rep.Algorithm, a.Name)
			}
			if rep.Rounds != col.Rounds {
				t.Errorf("trace rounds = %d, coloring rounds = %d", rep.Rounds, col.Rounds)
			}
			if rep.Messages != col.Messages {
				t.Errorf("trace messages = %d, coloring messages = %d", rep.Messages, col.Messages)
			}
			if len(rep.Phases) != len(col.Phases) {
				t.Fatalf("trace has %d phases, coloring has %d:\ntrace: %+v\ncoloring: %+v",
					len(rep.Phases), len(col.Phases), rep.Phases, col.Phases)
			}
			var sampleMsgs, phaseMsgs int
			for i, p := range rep.Phases {
				if p.Phase != col.Phases[i].Name || p.Rounds != col.Phases[i].Rounds {
					t.Errorf("phase %d: trace (%s, %d) vs coloring (%s, %d)",
						i, p.Phase, p.Rounds, col.Phases[i].Name, col.Phases[i].Rounds)
				}
				phaseMsgs += p.Messages
				for _, s := range p.Samples {
					sampleMsgs += s.Messages
				}
				if p.SampleStride == 1 && len(p.Samples) != p.EngineRounds {
					t.Errorf("phase %s: stride 1 but %d samples for %d engine rounds",
						p.Phase, len(p.Samples), p.EngineRounds)
				}
			}
			if phaseMsgs != col.Messages {
				t.Errorf("per-phase messages sum to %d, coloring has %d", phaseMsgs, col.Messages)
			}
			// Every smoke graph is small enough that no phase outgrows the
			// sample cap, so the samples are complete and must also sum up.
			if sampleMsgs != col.Messages {
				t.Errorf("sample messages sum to %d, coloring has %d", sampleMsgs, col.Messages)
			}
			// The wire form must round-trip through JSON unchanged.
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back distcolor.TraceReport
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Rounds != rep.Rounds || back.Messages != rep.Messages || len(back.Phases) != len(rep.Phases) {
				t.Errorf("JSON round-trip changed the report: %+v vs %+v", back, rep)
			}
		})
	}
}

// TestTraceReuseAcrossRuns pins that a fresh trace per run is the contract:
// a second run with a new trace reports only its own cost.
func TestTraceReuseAcrossRuns(t *testing.T) {
	g, err := runcfg.Generate("grid:6x6", 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *distcolor.TraceReport {
		trace := &distcolor.RoundTrace{}
		col, err := distcolor.Run(context.Background(), g, "delta", distcolor.WithTrace(trace))
		if err != nil {
			t.Fatal(err)
		}
		rep := trace.Report("delta")
		if rep.Rounds != col.Rounds {
			t.Fatalf("trace rounds = %d, want %d", rep.Rounds, col.Rounds)
		}
		return rep
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("identical runs traced differently: %+v vs %+v", a, b)
	}
}

// TestProgressOptionOrder pins that progress is a view of whichever trace
// the run ends up with: WithProgress before WithTrace still reports, and
// the observer does not outlive its run on a caller's trace.
func TestProgressOptionOrder(t *testing.T) {
	g, err := runcfg.Generate("grid:5x6", 1)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	trace := &distcolor.RoundTrace{}
	col, err := distcolor.Run(context.Background(), g, "delta",
		distcolor.WithProgress(func(distcolor.PhaseEvent) { events++ }),
		distcolor.WithTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || trace.Rounds() != col.Rounds {
		t.Fatalf("events=%d, trace rounds=%d, coloring rounds=%d", events, trace.Rounds(), col.Rounds)
	}
	seen := events
	if _, err := distcolor.Run(context.Background(), g, "delta", distcolor.WithTrace(trace)); err != nil {
		t.Fatal(err)
	}
	if events != seen {
		t.Fatalf("observer of the first run saw %d events of the second", events-seen)
	}
}
