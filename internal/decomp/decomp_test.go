package decomp

import (
	"math"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

func logBound(n int) int {
	return int(math.Ceil(math.Log2(float64(n)))) + 1
}

func TestCarveInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(64)},
		{"cycle", gen.Cycle(99)},
		{"grid", gen.Grid(12, 13)},
		{"apollonian", gen.Apollonian(200, rng)},
		{"gnp", gen.GNP(120, 0.05, rng)},
		{"tree", gen.RandomTree(150, rng)},
	}
	for _, tc := range cases {
		d := Carve(tc.g, nil)
		if err := d.Verify(tc.g, nil, logBound(tc.g.N()), logBound(tc.g.N())); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestCarveMasked(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Grid(10, 10)
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = rng.Float64() < 0.75
	}
	d := Carve(g, mask)
	if err := d.Verify(g, mask, logBound(g.N()), logBound(g.N())); err != nil {
		t.Fatal(err)
	}
}

func TestCarveSingletons(t *testing.T) {
	g := graph.MustNew(5, nil) // edgeless: every vertex its own cluster
	d := Carve(g, nil)
	if d.Colors != 1 {
		t.Errorf("edgeless graph needs 1 color, got %d", d.Colors)
	}
	if err := d.Verify(g, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDegPlusOneListColorViaDecomposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, tc := range []*graph.Graph{
		gen.Apollonian(150, rng),
		gen.Grid(9, 11),
		gen.Cycle(40),
	} {
		nw := local.NewShuffledNetwork(tc, rng)
		d := Carve(tc, nil)
		lists := make([][]int, tc.N())
		for v := range lists {
			perm := rng.Perm(tc.MaxDegree() + 4)
			lists[v] = perm[:tc.Degree(v)+1]
		}
		var ledger local.Ledger
		colors, err := DegPlusOneListColor(nw, &ledger, "decomp", nil, d, lists)
		if err != nil {
			t.Fatal(err)
		}
		if err := seqcolor.Verify(tc, colors, seqcolor.Given(lists)); err != nil {
			t.Fatal(err)
		}
		// O(colors · diameter) rounds
		bound := d.Colors * (2*d.Radius + 2)
		if ledger.Rounds() > bound {
			t.Errorf("rounds %d > colors·diam %d", ledger.Rounds(), bound)
		}
	}
}

func TestDegPlusOneListColorRejectsShortLists(t *testing.T) {
	g := gen.Cycle(8)
	nw := local.NewNetwork(g)
	d := Carve(g, nil)
	lists := seqcolor.UniformLists(8, 2) // need deg+1 = 3
	if _, err := DegPlusOneListColor(nw, nil, "", nil, d, lists); err == nil {
		t.Error("short lists accepted")
	}
}
