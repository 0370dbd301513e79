package be

import (
	"context"
	"math/rand/v2"
	"testing"

	"distcolor/internal/density"
	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

func TestThreshold(t *testing.T) {
	if Threshold(2, 0.5) != 5 {
		t.Errorf("⌊2.5·2⌋ = %d, want 5", Threshold(2, 0.5))
	}
	if Threshold(3, 1.0/4.0) != 6 {
		t.Errorf("⌊2.25·3⌋ = %d, want 6", Threshold(3, 0.25))
	}
}

func TestHPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := 3
	g := gen.ForestUnion(400, a, rng)
	if !density.ArboricityAtMost(g, a) {
		t.Fatal("generator violated arboricity promise")
	}
	nw := local.NewShuffledNetwork(g, rng)
	var ledger local.Ledger
	layerOf, layers, err := HPartition(nw, &ledger, "hp", a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if layers < 1 || ledger.Rounds() != layers {
		t.Errorf("layers=%d rounds=%d", layers, ledger.Rounds())
	}
	// every vertex assigned; degree bound within suffix layers
	thr := Threshold(a, 0.5)
	for v := 0; v < g.N(); v++ {
		if layerOf[v] < 1 {
			t.Fatalf("vertex %d unassigned", v)
		}
		later := 0
		for _, w := range g.Neighbors(v) {
			if layerOf[w] >= layerOf[v] {
				later++
			}
		}
		if later > thr {
			t.Fatalf("vertex %d has %d same-or-later neighbors > %d", v, later, thr)
		}
	}
}

func TestForestDecomposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := 2
	g := gen.ForestUnion(200, a, rng)
	nw := local.NewShuffledNetwork(g, rng)
	layerOf, _, err := HPartition(nw, nil, "", a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := ForestDecomposition(nw, layerOf, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// every edge must appear in exactly one forest
	covered := map[[2]int]int{}
	for f := range parents {
		seen := make([]bool, g.N())
		for v, p := range parents[f] {
			if p == -1 {
				continue
			}
			if !g.HasEdge(v, p) {
				t.Fatalf("forest %d: non-edge (%d,%d)", f, v, p)
			}
			key := [2]int{min(v, p), max(v, p)}
			covered[key]++
			_ = seen
		}
		// acyclicity: follow parents; (layer, ID) strictly increases so no cycles
	}
	if len(covered) != g.M() {
		t.Fatalf("forests cover %d edges, graph has %d", len(covered), g.M())
	}
	for e, c := range covered {
		if c != 1 {
			t.Fatalf("edge %v covered %d times", e, c)
		}
	}
}

func TestColorForests3Product(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	a := 2
	g := gen.ForestUnion(150, a, rng)
	nw := local.NewShuffledNetwork(g, rng)
	layerOf, _, err := HPartition(nw, nil, "", a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := ForestDecomposition(nw, layerOf, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	colors, err := ColorForests3Product(nw, nil, "cv", parents)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, colors, seqcolor.Lists{}); err != nil {
		t.Fatal(err)
	}
	maxPalette := 1
	for range parents {
		maxPalette *= 3
	}
	if k := seqcolor.NumColors(colors); k > maxPalette {
		t.Errorf("product used %d colors > 3^%d", k, len(parents))
	}
}

func TestColorArbHeadline(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, a := range []int{2, 3} {
		g := gen.ForestUnion(300, a, rng)
		nw := local.NewShuffledNetwork(g, rng)
		var ledger local.Ledger
		res, err := ColorArb(context.Background(), nw, &ledger, a, 0.5)
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if err := seqcolor.Verify(g, res.Colors, seqcolor.Lists{}); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		want := Threshold(a, 0.5) + 1
		if k := seqcolor.NumColors(res.Colors); k > want {
			t.Errorf("a=%d: used %d colors > %d", a, k, want)
		}
	}
}

func TestTwoAPlusOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	a := 2
	g := gen.ForestUnion(250, a, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := TwoAPlusOne(context.Background(), nw, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Lists{}); err != nil {
		t.Fatal(err)
	}
	if k := seqcolor.NumColors(res.Colors); k > 2*a+1 {
		t.Errorf("used %d colors > 2a+1 = %d", k, 2*a+1)
	}
}

func TestColorArbBadParams(t *testing.T) {
	g := gen.Path(5)
	nw := local.NewNetwork(g)
	if _, err := ColorArb(context.Background(), nw, nil, 0, 0.5); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := ColorArb(context.Background(), nw, nil, 1, 0); err == nil {
		t.Error("ε=0 accepted")
	}
}
