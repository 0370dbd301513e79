package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"distcolor/internal/density"
	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// The paper's own constructions, pushed through the paper's own algorithm.

func TestRunOnKleinGrid(t *testing.T) {
	// The Klein-bottle grid is 4-regular (mad = 4) with no K5: Theorem 1.3
	// with d = 4 must 4-list-color it — and since χ = 4 (Theorem 2.5's
	// certified fact), 4 distinct colors is optimal.
	rng := rand.New(rand.NewPCG(1, 2))
	g := gen.KleinGrid(9, 11)
	if !density.MadAtMost(g, 4) {
		t.Fatal("Klein grid should have mad 4")
	}
	res := mustRun(t, g, Config{D: 4}, rng)
	if k := seqcolor.NumColors(res.Colors); k != 4 {
		t.Errorf("Klein grid colored with %d colors; χ = 4 so exactly 4 expected from a 4-palette", k)
	}
}

func TestRunOnToroidalTriangulation(t *testing.T) {
	// C_n(1,2,3): 6-regular (mad = 6), K4 ⊆ but no K7: Theorem 1.3 with
	// d = 6 must 6-list-color it even though no 4-coloring algorithm can
	// succeed locally (Theorem 1.5) — 6 > 5 = χ makes it locally feasible.
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.CyclePower(90, 3)
	if g.FindCliqueDPlus1(6) != nil {
		t.Fatal("C_n(1,2,3) has no K7")
	}
	lists := randomLists(g.N(), 6, 13, rng)
	res := mustRun(t, g, Config{D: 6, Lists: seqcolor.Given(lists)}, rng)
	if res.Radius <= 0 {
		t.Error("radius not recorded")
	}
}

func TestRunOnCylinderH(t *testing.T) {
	// H_{2l} (Figure 2 right): planar, triangle-free, mad < 4.
	rng := rand.New(rand.NewPCG(5, 6))
	g := gen.CylinderGrid(5, 24)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := TriangleFree4(context.Background(), nw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, res.Lists); err != nil {
		t.Fatal(err)
	}
	if k := seqcolor.NumColors(res.Colors); k > 4 {
		t.Errorf("H colored with %d > 4 colors", k)
	}
}

func TestRunMatchesSequentialTheorem12(t *testing.T) {
	// Differential test: the distributed Theorem 1.3 and the sequential
	// folklore Theorem 1.2 must both succeed on the same instances, with
	// list-compliant colorings (they may differ in the coloring itself).
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 12; trial++ {
		a := 2 + rng.IntN(2)
		d := 2 * a
		g := gen.ForestUnion(30+rng.IntN(120), a, rng)
		if g.FindCliqueDPlus1(d) != nil {
			continue
		}
		lists := randomLists(g.N(), d, 2*d+3, rng)
		seqColors, err := seqcolor.SparseListColor(g, d, lists)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if err := seqcolor.Verify(g, seqColors, seqcolor.Given(lists)); err != nil {
			t.Fatalf("trial %d: sequential invalid: %v", trial, err)
		}
		nw := local.NewShuffledNetwork(g, rng)
		res, err := Run(context.Background(), nw, Config{D: d, Lists: seqcolor.Given(lists)})
		if err != nil {
			t.Fatalf("trial %d: distributed: %v", trial, err)
		}
		if res.Clique != nil {
			t.Fatalf("trial %d: unexpected clique", trial)
		}
		if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
			t.Fatalf("trial %d: distributed invalid: %v", trial, err)
		}
	}
}

func TestRunRoundsGrowPolylog(t *testing.T) {
	// The rounds/log³n ratio must not blow up across a 16× size range
	// (linear-round behavior would show a ≥ 4× drift here).
	rng := rand.New(rand.NewPCG(9, 10))
	ratios := make([]float64, 0, 3)
	for _, n := range []int{250, 1000, 4000} {
		g := gen.Apollonian(n, rng)
		res := mustRun(t, g, Config{D: 6}, rng)
		l := log2f(n)
		ratios = append(ratios, float64(res.Rounds())/(l*l*l))
	}
	if ratios[2] > 3*ratios[0] {
		t.Errorf("rounds/log³n drifting upward: %v", ratios)
	}
}

func log2f(n int) float64 {
	l := 0.0
	for m := 1; m < n; m *= 2 {
		l++
	}
	return l
}
