package gps

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/seqcolor"
)

func TestPlanar7Apollonian(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{10, 100, 1000} {
		g := gen.Apollonian(n, rng)
		nw := local.NewShuffledNetwork(g, rng)
		var ledger local.Ledger
		res, err := Planar7(context.Background(), nw, &ledger)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := seqcolor.Verify(g, res.Colors, seqcolor.Lists{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if k := seqcolor.NumColors(res.Colors); k > 7 {
			t.Errorf("n=%d: used %d colors > 7", n, k)
		}
		// planar guarantee: layers ≤ log_{7/6} n + 1
		bound := int(math.Ceil(math.Log(float64(n))/math.Log(7.0/6.0))) + 2
		if res.Layers > bound {
			t.Errorf("n=%d: %d layers > bound %d", n, res.Layers, bound)
		}
	}
}

func TestPeelColorGrid(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Grid(20, 20)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := PeelColor(context.Background(), nw, nil, "t", 2) // grids are 2-degenerate
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Lists{}); err != nil {
		t.Fatal(err)
	}
	if k := seqcolor.NumColors(res.Colors); k > 3 {
		t.Errorf("grid used %d colors > 3", k)
	}
}

func TestPeelColorStalls(t *testing.T) {
	g := gen.Complete(6) // 5-degenerate
	nw := local.NewNetwork(g)
	if _, err := PeelColor(context.Background(), nw, nil, "t", 3); err == nil {
		t.Error("expected stall on K6 with k=3")
	}
}

func TestPeelColorColorBoundPerVertex(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.Apollonian(300, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := PeelColor(context.Background(), nw, nil, "t", 6)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Colors {
		if c < 0 || c > 6 {
			t.Fatalf("vertex %d color %d outside [0,6]", v, c)
		}
	}
	if err := reduce.VerifyMaskColoring(g, nil, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestPeelColorTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	g := gen.RandomTree(500, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := PeelColor(context.Background(), nw, nil, "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if k := seqcolor.NumColors(res.Colors); k > 2 {
		t.Errorf("tree used %d colors > 2", k)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Lists{}); err != nil {
		t.Fatal(err)
	}
}

// TestPeelColorAllocates checks that a warm Planar7 call on an Apollonian
// graph of n=1e4 makes at most 64 allocations: its buffers are allocated
// once at their final size, so the count does not grow with the layers,
// the classes or n.
func TestPeelColorAllocates(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 3))
	nw := local.NewShuffledNetwork(gen.Apollonian(10000, rng), rng)
	allocs := testing.AllocsPerRun(5, func() {
		var ledger local.Ledger
		if _, err := Planar7(context.Background(), nw, &ledger); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Planar7 on apollonian n=1e4 made %.0f allocations, want ≤ 64", allocs)
	}
}

// BenchmarkPeelColor times Planar7 on the graph shape serve-cold colors: an
// Apollonian graph of n=1e5 with shuffled IDs, a fresh ledger per op.
func BenchmarkPeelColor(b *testing.B) {
	rng := rand.New(rand.NewPCG(26, 4))
	nw := local.NewShuffledNetwork(gen.Apollonian(100000, rng), rng)
	b.Run("apollonian_n1e5", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var ledger local.Ledger
			if _, err := Planar7(context.Background(), nw, &ledger); err != nil {
				b.Fatal(err)
			}
		}
	})
}
