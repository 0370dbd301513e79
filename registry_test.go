package distcolor

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"math/rand/v2"

	"distcolor/internal/gen"
)

// subdividedCube returns the 1-subdivision of the cube graph Q₃: planar,
// bipartite, triangle-free, girth 8, Δ = 3, mad < 3, arboricity ≤ 2 — one
// graph satisfying the hypotheses of every registered algorithm under its
// default parameters, which is what makes a uniform conformance sweep
// possible.
func subdividedCube(t *testing.T) *Graph {
	t.Helper()
	cube := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	b := NewBuilder(8 + len(cube))
	for i, e := range cube {
		mid := 8 + i
		if err := b.AddEdge(e[0], mid); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(mid, e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Graph()
}

// TestRegistryConformance runs every registered algorithm, with default
// parameters, on a graph satisfying all their hypotheses, and checks the
// returned coloring against the lists the run reports using plus the
// palette bound the registry metadata promises. A run that reports no
// lists is also checked against the palette [0, PaletteSize) itself (Run
// has checked it already for ListsAny algorithms).
func TestRegistryConformance(t *testing.T) {
	g := subdividedCube(t)
	for _, a := range Algorithms() {
		for _, seed := range []uint64{0, 7} {
			col, err := Run(context.Background(), g, a.Name, WithSeed(seed))
			if err != nil {
				t.Errorf("%s (seed %d): %v", a.Name, seed, err)
				continue
			}
			if col.Algorithm != a.Name {
				t.Errorf("%s: coloring credits %q", a.Name, col.Algorithm)
			}
			if col.Clique != nil {
				t.Errorf("%s: unexpected clique on a K₄-free graph", a.Name)
				continue
			}
			if err := Verify(g, col.Colors, col.Lists); err != nil {
				t.Errorf("%s (seed %d): invalid coloring: %v", a.Name, seed, err)
			}
			k, known := a.PaletteSize(g, mustParams(t, a))
			if known && NumColors(col.Colors) > k {
				t.Errorf("%s: used %d colors, metadata promises ≤ %d", a.Name, NumColors(col.Colors), k)
			}
			if known && col.Lists == nil {
				if err := Verify(g, col.Colors, UniformLists(g.N(), k)); err != nil {
					t.Errorf("%s (seed %d): outside the palette [0, %d): %v", a.Name, seed, k, err)
				}
			}
			if col.Rounds <= 0 {
				t.Errorf("%s: no rounds charged", a.Name)
			}
		}
	}
}

func mustParams(t *testing.T, a *Algorithm) ParamValues {
	t.Helper()
	vals, err := a.ResolveParams(nil)
	if err != nil {
		t.Fatalf("%s: default params invalid: %v", a.Name, err)
	}
	return vals
}

func TestRunOptionValidation(t *testing.T) {
	g := subdividedCube(t)
	ctx := context.Background()
	if _, err := Run(ctx, g, "nosuch"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm: %v", err)
	}
	if _, err := Run(ctx, g, "sparse", WithD(2)); err == nil {
		t.Error("sparse d=2 accepted")
	}
	if _, err := Run(ctx, g, "planar6", WithD(6)); err == nil {
		t.Error("planar6 accepted a d parameter it does not have")
	}
	if _, err := Run(ctx, g, "be", WithEps(0)); err == nil {
		t.Error("be ε=0 accepted")
	}
	if _, err := Run(ctx, g, "gps7", WithLists(UniformLists(g.N(), 7))); err == nil {
		t.Error("gps7 accepted caller lists")
	}
	// Pre-cancelled contexts never start the run.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Run(cancelled, g, "planar6"); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: %v", err)
	}
}

// TestRunRejectsMalformedLists gives every algorithm that takes caller
// lists a list slice of the wrong length, and lists holding a negative
// color (which would collide with the Uncolored sentinel). Run must return
// a clear error, not panic or blame the algorithm.
func TestRunRejectsMalformedLists(t *testing.T) {
	g := gen.Grid(6, 6)
	negative := make([][]int, g.N())
	for v := range negative {
		negative[v] = []int{-1, 0, 1, 2, 3, 4, 5}
	}
	for _, a := range Algorithms() {
		if a.Lists == ListsNone {
			continue
		}
		_, err := Run(context.Background(), g, a.Name, WithLists(UniformLists(33, 7)))
		if err == nil || !strings.Contains(err.Error(), "33 lists for 36 vertices") {
			t.Errorf("%s, 33 lists: %v", a.Name, err)
		}
		_, err = Run(context.Background(), g, a.Name, WithLists(negative))
		if err == nil || !strings.Contains(err.Error(), "negative color -1") {
			t.Errorf("%s, negative color: %v", a.Name, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(&Algorithm{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(&Algorithm{Name: "x-no-run"}); err == nil {
		t.Error("nil Run accepted")
	}
	if err := Register(&Algorithm{Name: "planar6", Run: func(context.Context, *Graph, *RunConfig) (*Coloring, error) { return nil, nil }}); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestRunCancellationPrompt cancels a heavy run mid-flight and requires a
// prompt ctx.Err() return with no leaked worker goroutines.
func TestRunCancellationPrompt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.Apollonian(120000, rng)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, g, "planar6", WithSeed(3))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled run never returned")
	}
	if waited := time.Since(cancelAt); waited > 30*time.Second {
		t.Fatalf("cancellation took %s", waited)
	}
	// The RunSync worker pool must be torn down on the cancel path.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRunDeadline exercises the context.DeadlineExceeded path.
func TestRunDeadline(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Apollonian(120000, rng)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, g, "planar6"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run returned %v", err)
	}
}

// TestLubyBaseline checks the satellite registration end to end: proper
// coloring, ≤ Δ+1 colors, determinism in the seed.
func TestLubyBaseline(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g := gen.Apollonian(400, rng)
	col1, err := Run(context.Background(), g, "luby", WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, col1.Colors, nil); err != nil {
		t.Fatal(err)
	}
	if k, max := NumColors(col1.Colors), g.MaxDegree()+1; k > max {
		t.Fatalf("luby used %d colors > Δ+1 = %d", k, max)
	}
	col2, err := Run(context.Background(), g, "luby", WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for v := range col1.Colors {
		if col1.Colors[v] != col2.Colors[v] {
			t.Fatalf("luby not deterministic in seed at vertex %d", v)
		}
	}
}
