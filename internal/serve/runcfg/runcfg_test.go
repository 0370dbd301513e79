package runcfg

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	g1, err := Generate("apollonian:200", 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate("apollonian:200", 7)
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() || g1.M() != g2.M() || !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Fatalf("same (spec, seed) generated different graphs")
	}
	g3, err := Generate("apollonian:200", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Edges(), g3.Edges()) {
		t.Fatalf("different seeds generated identical graphs (suspicious)")
	}
}

func TestGenerateBadSpec(t *testing.T) {
	if _, err := Generate("nosuch:10", 1); err == nil {
		t.Fatal("want error for unknown generator")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Algo: "nosuch"},
		{Algo: "sparse", D: 2},
		{Algo: "be", A: 2, Eps: -1},
		{Algo: "arboricity", A: -1},
		{Algo: "planar6", ListSize: 4, Palette: 2},
		// Palette ≥ ListSize but below the 6 colors planar6 actually draws:
		// must be rejected, never silently widened.
		{Algo: "planar6", ListSize: 4, Palette: 5},
		{Algo: "sparse", D: 7, ListSize: 3, Palette: 6},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	for _, algo := range Algorithms() {
		c := Config{Algo: algo}.WithDefaults()
		if err := c.Validate(); err != nil {
			t.Errorf("default config for %s invalid: %v", algo, err)
		}
	}
}

func TestKeyIgnoresIrrelevantParams(t *testing.T) {
	a := Config{Algo: "planar6", Seed: 3, D: 9, A: 5, Eps: 2.5}
	b := Config{Algo: "planar6", Seed: 3}
	if a.Key() != b.Key() {
		t.Fatalf("planar6 keys differ on ignored params: %q vs %q", a.Key(), b.Key())
	}
	c := Config{Algo: "sparse", Seed: 3, D: 4}
	d := Config{Algo: "sparse", Seed: 3, D: 5}
	if c.Key() == d.Key() {
		t.Fatalf("sparse keys must distinguish d")
	}
	e := Config{Algo: "planar6", Seed: 4}
	if b.Key() == e.Key() {
		t.Fatalf("keys must distinguish seeds")
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	// Apollonian graphs are planar, 3-degenerate, arboricity ≤ 3, so every
	// wire algorithm has a valid workload on one (sparse needs d ≥ mad ⇒ 6).
	g, err := Generate("apollonian:120", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		cfg := Config{Algo: algo, Seed: 2, A: 3}.WithDefaults()
		res, err := Run(context.Background(), g, cfg)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if res.Clique == nil && !res.Verified {
			t.Errorf("%s: result not verified", algo)
		}
		if res.Clique == nil && res.ColorsUsed == 0 {
			t.Errorf("%s: no colors used", algo)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g, err := Generate("apollonian:150", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"planar6", "randomized", "sparse"} {
		cfg := Config{Algo: algo, Seed: 11, D: 6, ListSize: 6}.WithDefaults()
		r1, err := Run(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		r2, err := Run(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !reflect.DeepEqual(r1.Colors, r2.Colors) || r1.Rounds != r2.Rounds {
			t.Fatalf("%s: repeated run differed (rounds %d vs %d)", algo, r1.Rounds, r2.Rounds)
		}
	}
}

func TestRunSparseCliqueCertificate(t *testing.T) {
	g, err := Generate("complete:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, Config{Algo: "sparse", D: 4}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clique) != 5 {
		t.Fatalf("K_5 with d=4 should yield a K_5 certificate, got %+v", res)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestRunRandomListsHonorDeadline: drawing each list costs O(palette), so a
// huge palette must not hold a run past its deadline before it starts.
func TestRunRandomListsHonorDeadline(t *testing.T) {
	g, err := Generate("grid:20x20", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(ctx, g, Config{Algo: "planar6", ListSize: 6, Palette: 2_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("returned after %v, want < 2s", el)
	}
}
