package reduce

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

func TestLinialColorProper(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := []*graph.Graph{
		gen.Cycle(64),
		gen.Grid(10, 10),
		gen.GNP(80, 0.05, rng),
		gen.Apollonian(120, rng),
		gen.Grid(40, 50), // n=2000 ≫ Linial fixpoint for Δ=4
		gen.Cycle(5000),  // n=5000 ≫ fixpoint for Δ=2
	}
	for i, g := range cases {
		nw := local.NewShuffledNetwork(g, rng)
		var ledger local.Ledger
		colors, k := LinialColor(nw, &ledger, "linial", nil)
		if err := VerifyMaskColoring(g, nil, colors); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for v := 0; v < g.N(); v++ {
			if colors[v] < 0 || colors[v] >= k {
				t.Fatalf("case %d: color %d outside palette %d", i, colors[v], k)
			}
		}
		// The palette must shrink below n whenever n is far above the
		// O(Δ² log² Δ) fixpoint (small graphs may already be below it).
		if k >= g.N() && g.M() > 0 && g.N() > 1000 {
			t.Errorf("case %d: Linial did not shrink palette below n (k=%d)", i, k)
		}
		// O(log* n) iterations: tiny
		if ledger.Rounds() > 10 {
			t.Errorf("case %d: Linial used %d rounds, expected ≤ 10", i, ledger.Rounds())
		}
	}
}

func TestDegPlusOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	cases := []*graph.Graph{
		gen.Cycle(50),
		gen.Grid(8, 8),
		gen.Apollonian(100, rng),
		gen.Path(30),
	}
	for i, g := range cases {
		nw := local.NewShuffledNetwork(g, rng)
		var ledger local.Ledger
		colors := DegPlusOne(nw, &ledger, "dp1", nil)
		if err := VerifyMaskColoring(g, nil, colors); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for v := 0; v < g.N(); v++ {
			if colors[v] > g.MaxDegree() {
				t.Fatalf("case %d: color %d exceeds Δ=%d", i, colors[v], g.MaxDegree())
			}
		}
	}
}

func TestDegPlusOneMasked(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.Grid(9, 9)
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = rng.Float64() < 0.7
	}
	var verts []int
	for v, in := range mask {
		if in {
			verts = append(verts, v)
		}
	}
	nw := local.NewShuffledNetwork(g, rng)
	classes := DegPlusOne(nw, nil, "", verts)
	colors := make([]int, g.N())
	for i, v := range verts {
		colors[v] = classes[i]
	}
	if err := VerifyMaskColoring(g, mask, colors); err != nil {
		t.Fatal(err)
	}
}

func TestCVForest3Color(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	// random forest: random tree + its natural parent orientation
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.IntN(200)
		g := gen.RandomTree(n, rng)
		nw := local.NewShuffledNetwork(g, rng)
		// orient: BFS from 0
		res := g.BFS([]int{0}, nil, -1)
		member := make([]bool, n)
		for v := range member {
			member[v] = true
		}
		var ledger local.Ledger
		colors, err := CVForest3Color(nw, &ledger, "cv", member, res.Parent)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyForestColoring(member, res.Parent, colors, 3); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ledger.Rounds() > 25 {
			t.Errorf("trial %d: CV used %d rounds", trial, ledger.Rounds())
		}
	}
}

func TestCVForestPartialMembership(t *testing.T) {
	// forest = subgraph of a grid: a BFS tree of half the vertices
	rng := rand.New(rand.NewPCG(5, 5))
	g := gen.Grid(10, 10)
	nw := local.NewShuffledNetwork(g, rng)
	member := make([]bool, g.N())
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -1
	}
	res := g.BFS([]int{0}, nil, -1)
	for v := 0; v < g.N(); v++ {
		if res.Dist[v] <= 8 {
			member[v] = true
			if res.Dist[v] > 0 {
				parent[v] = res.Parent[v]
			}
		}
	}
	colors, err := CVForest3Color(nw, nil, "", member, parent)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyForestColoring(member, parent, colors, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCVForestBadParent(t *testing.T) {
	g := gen.Path(4)
	nw := local.NewNetwork(g)
	member := []bool{true, true, false, false}
	parent := []int{-1, 3, -1, -1} // 3 not adjacent to 1 and not a member
	if _, err := CVForest3Color(nw, nil, "", member, parent); err == nil {
		t.Error("invalid parent accepted")
	}
}

func TestRandomizedListColor(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	cases := []*graph.Graph{
		gen.Cycle(40),
		gen.Grid(7, 7),
		gen.Apollonian(80, rng),
	}
	for i, g := range cases {
		nw := local.NewShuffledNetwork(g, rng)
		lists := make([][]int, g.N())
		for v := range lists {
			perm := rng.Perm(g.MaxDegree() + 5)
			lists[v] = perm[:g.Degree(v)+1]
		}
		var ledger local.Ledger
		colors, err := RandomizedListColor(context.Background(), nw, &ledger, "rand", lists, 42, 500)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := VerifyMaskColoring(g, nil, colors); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for v, c := range colors {
			found := false
			for _, x := range lists[v] {
				if x == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("case %d: vertex %d color %d not in list", i, v, c)
			}
		}
	}
}

func TestRandomizedListColorRejectsShortLists(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	lists := make([][]int, 6)
	for v := range lists {
		lists[v] = []int{0, 1} // deg+1 = 3 needed
	}
	if _, err := RandomizedListColor(context.Background(), nw, nil, "", lists, 1, 100); err == nil {
		t.Error("short lists accepted")
	}
}

func TestLinialPrime(t *testing.T) {
	q, tt := linialPrime(1000, 6)
	if q <= 6*tt {
		t.Errorf("prime %d not > d*t = %d", q, 6*tt)
	}
	// q^t must cover the palette
	pow := 1
	for i := 0; i < tt; i++ {
		pow *= q
	}
	if pow < 1000 {
		t.Errorf("q^t = %d < 1000", pow)
	}
}

func TestReduceEdgeless(t *testing.T) {
	g := graph.MustNew(5, nil)
	nw := local.NewNetwork(g)
	colors, k := LinialColor(nw, nil, "", nil)
	if k != 1 {
		t.Errorf("edgeless palette=%d, want 1", k)
	}
	if err := VerifyMaskColoring(g, nil, colors); err != nil {
		t.Fatal(err)
	}
}

func TestReduceRejectsPalettePastInt32(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Error("palette 2³¹ accepted")
		}
	}()
	ReduceToMaxDegPlusOne(local.NewNetwork(g), nil, "", nil, []int{0, 1, 2}, math.MaxInt32+1)
}

func TestLinialSyncMatchesCentral(t *testing.T) {
	// The genuine message-passing Linial and the centrally simulated one
	// must compute the same coloring, vertex by vertex, with the same
	// palette and the same charged rounds. The last two graphs are large
	// enough for two iterations.
	rng := rand.New(rand.NewPCG(7, 7))
	cases := []*graph.Graph{
		gen.Cycle(200),
		gen.Grid(15, 15),
		gen.Apollonian(150, rng),
		gen.RandomTree(120, rng),
		gen.Cycle(20000),
		gen.Grid(120, 120),
	}
	for i, g := range cases {
		nw := local.NewShuffledNetwork(g, rng)
		var l1, l2 local.Ledger
		syncColors, syncK, err := LinialColorSync(context.Background(), nw, &l1, "sync")
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		centralColors, centralK := LinialColor(nw, &l2, "central", nil)
		if err := VerifyMaskColoring(g, nil, centralColors); err != nil {
			t.Fatalf("case %d central: %v", i, err)
		}
		if syncK != centralK {
			t.Errorf("case %d: palettes differ: sync=%d central=%d", i, syncK, centralK)
		}
		if !slices.Equal(syncColors, centralColors) {
			t.Fatalf("case %d: sync and central colorings differ", i)
		}
		if l1.Rounds() != l2.Rounds() {
			t.Errorf("case %d: sync charged %d rounds, central %d", i, l1.Rounds(), l2.Rounds())
		}
		if l2.Rounds() > 0 && l1.Messages() == 0 {
			t.Errorf("case %d: central iterated but sync sent no messages", i)
		}
	}
}

func TestLinialSyncEdgeless(t *testing.T) {
	g := graph.MustNew(4, nil)
	nw := local.NewNetwork(g)
	colors, k, err := LinialColorSync(context.Background(), nw, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 || colors[0] != 0 {
		t.Errorf("edgeless sync: k=%d colors=%v", k, colors)
	}
}
