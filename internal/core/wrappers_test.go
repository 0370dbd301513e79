package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

func TestValidateNiceCases(t *testing.T) {
	// path endpoints (deg 1) need 2 colors; K3 vertices are simplicial.
	g := gen.Path(3)
	nw := local.NewNetwork(g)
	ok := [][]int{{0, 1}, {0, 1, 2}, {0, 1}}
	if err := ValidateNice(nw, seqcolor.Given(ok)); err != nil {
		t.Errorf("valid nice assignment rejected: %v", err)
	}
	bad := [][]int{{0}, {0, 1, 2}, {0, 1}}
	if err := ValidateNice(nw, seqcolor.Given(bad)); !errors.Is(err, ErrNotNice) {
		t.Errorf("want ErrNotNice, got %v", err)
	}
	// simplicial: K3 vertex with deg-sized list is not nice
	k3 := gen.Complete(3)
	nw3 := local.NewNetwork(k3)
	if err := ValidateNice(nw3, seqcolor.Given(seqcolor.UniformLists(3, 2))); !errors.Is(err, ErrNotNice) {
		t.Errorf("simplicial tight list accepted: %v", err)
	}
	if err := ValidateNice(nw3, seqcolor.Given(seqcolor.UniformLists(3, 3))); err != nil {
		t.Errorf("simplicial deg+1 list rejected: %v", err)
	}
}

func TestIsSimplicial(t *testing.T) {
	g := gen.WithPendantCliques(gen.Path(3), 3)
	nw := local.NewNetwork(g)
	// clique-interior vertices are simplicial; path-internal vertex is not
	simp := 0
	for v := 0; v < g.N(); v++ {
		if IsSimplicial(nw, v) {
			simp++
		}
	}
	if simp == 0 {
		t.Error("pendant-triangle tips should be simplicial")
	}
	if IsSimplicial(nw, 1) { // middle of the path with two pendant nbrs
		t.Error("path middle should not be simplicial")
	}
}

func TestDeltaListColorRejectsSmallDelta(t *testing.T) {
	g := gen.Path(5) // Δ = 2
	nw := local.NewNetwork(g)
	if _, err := DeltaListColor(context.Background(), nw, Config{Lists: seqcolor.Given(seqcolor.UniformLists(5, 2))}); err == nil {
		t.Error("Δ=2 accepted (Corollary 2.1 needs Δ ≥ 3)")
	}
}

func TestDeltaListColorRejectsShortLists(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g, err := gen.RandomRegular(20, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := local.NewNetwork(g)
	if _, err := DeltaListColor(context.Background(), nw, Config{Lists: seqcolor.Given(seqcolor.UniformLists(20, 3))}); err == nil {
		t.Error("lists shorter than Δ accepted")
	}
}

func TestArboricityRejectsAOne(t *testing.T) {
	g := gen.Path(10)
	nw := local.NewNetwork(g)
	if _, err := Arboricity2a(context.Background(), nw, 1, Config{}); err == nil {
		t.Error("a=1 accepted — Linial's bound forbids it")
	}
}

func TestGenusRejectsZero(t *testing.T) {
	g := gen.Cycle(5)
	nw := local.NewNetwork(g)
	if _, err := GenusHg(context.Background(), nw, 0, Config{}); err == nil {
		t.Error("genus 0 accepted")
	}
}

func TestRunNiceOnRegular(t *testing.T) {
	// Δ-regular with Δ-lists: nice (no deg ≤ 2, no simplicial for girth>3
	// samples); subsumes Corollary 2.1 through the Theorem 6.1 interface.
	rng := rand.New(rand.NewPCG(2, 3))
	g, err := gen.RandomRegular(60, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := local.NewShuffledNetwork(g, rng)
	if tri, _ := g.ContainsTriangle(); !tri {
		// all vertices non-simplicial for sure
	}
	lists := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		size := 4
		if IsSimplicial(nw, v) {
			size++
		}
		perm := rng.Perm(10)
		lists[v] = perm[:size]
	}
	res, err := RunNice(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanar6Soak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewPCG(4, 5))
	g := gen.Apollonian(10000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := Planar6(context.Background(), nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, res.Lists); err != nil {
		t.Fatal(err)
	}
	if k := seqcolor.NumColors(res.Colors); k > 6 {
		t.Errorf("%d colors > 6", k)
	}
	t.Logf("n=10000: %d colors, %d rounds, %d iterations",
		seqcolor.NumColors(res.Colors), res.Rounds(), len(res.Iterations))
}
