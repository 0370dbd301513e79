package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return b.Graph()
}

func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return b.Graph()
}

func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.AddEdge(i, j); err != nil {
				panic(err)
			}
		}
	}
	return b.Graph()
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdgeOK(i, j)
			}
		}
	}
	return b.Graph()
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) accepted")
	}
	g := b.Graph()
	if g.N() != 3 || g.M() != 1 {
		t.Errorf("got n=%d m=%d, want 3,1", g.N(), g.M())
	}
}

func TestDegreesAndEdges(t *testing.T) {
	g := MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Errorf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if !g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Error("HasEdge wrong")
	}
	if g.MaxDegree() != 3 || g.MinDegree() != 2 {
		t.Error("max/min degree wrong")
	}
	if len(g.Edges()) != 5 {
		t.Error("Edges wrong length")
	}
	if got := g.AverageDegree(); got != 2.5 {
		t.Errorf("avg degree = %v, want 2.5", got)
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(10)
	res := g.BFS([]int{0}, nil, -1)
	for v := 0; v < 10; v++ {
		if res.Dist[v] != v {
			t.Errorf("dist[%d]=%d, want %d", v, res.Dist[v], v)
		}
	}
	// radius cap
	res = g.BFS([]int{0}, nil, 3)
	if res.Dist[3] != 3 || res.Dist[4] != -1 {
		t.Errorf("radius cap violated: %v", res.Dist[:6])
	}
	// multi-source
	res = g.BFS([]int{0, 9}, nil, -1)
	if res.Dist[5] != 4 || res.Dist[4] != 4 {
		t.Errorf("multi-source wrong: %v", res.Dist)
	}
}

func TestBFSMask(t *testing.T) {
	g := cycle(10)
	mask := make([]bool, 10)
	for i := 0; i < 10; i++ {
		mask[i] = i != 5
	}
	res := g.BFS([]int{0}, mask, -1)
	if res.Dist[5] != -1 {
		t.Error("masked vertex reached")
	}
	if res.Dist[6] != 4 { // must go the long way: 0-9-8-7-6
		t.Errorf("dist[6]=%d, want 4", res.Dist[6])
	}
}

func TestBallConvention(t *testing.T) {
	g := path(5)
	mask := []bool{true, true, false, true, true}
	if got := g.Ball(2, 3, mask); got != nil {
		t.Errorf("ball of masked-out vertex should be empty, got %v", got)
	}
	ball := g.Ball(0, 1, nil)
	if len(ball) != 2 {
		t.Errorf("ball radius 1 of path end should have 2 vertices, got %v", ball)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdgeOK(0, 1)
	b.AddEdgeOK(1, 2)
	b.AddEdgeOK(3, 4)
	g := b.Graph()
	comps := g.Components(nil)
	if len(comps) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if g.IsConnected(nil) {
		t.Error("disconnected graph reported connected")
	}
	if !path(5).IsConnected(nil) {
		t.Error("path reported disconnected")
	}
}

func TestDiameterEccentricity(t *testing.T) {
	g := path(7)
	if d := g.Diameter(nil); d != 6 {
		t.Errorf("path diameter=%d, want 6", d)
	}
	if e := g.Eccentricity(3, nil); e != 3 {
		t.Errorf("center ecc=%d, want 3", e)
	}
	if d := cycle(8).Diameter(nil); d != 4 {
		t.Errorf("C8 diameter=%d, want 4", d)
	}
}

func TestBipartite(t *testing.T) {
	if ok, _ := cycle(6).IsBipartite(nil); !ok {
		t.Error("C6 should be bipartite")
	}
	if ok, _ := cycle(5).IsBipartite(nil); ok {
		t.Error("C5 should not be bipartite")
	}
	ok, side := path(4).IsBipartite(nil)
	if !ok || side[0] == side[1] || side[1] == side[2] {
		t.Error("path 2-coloring invalid")
	}
}

func TestInduced(t *testing.T) {
	g := complete(5)
	sub, orig, err := g.Induced([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 3 {
		t.Errorf("induced K3 wrong: %v", sub)
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("orig map wrong: %v", orig)
	}
	if _, _, err := g.Induced([]int{0, 0}); err == nil {
		t.Error("duplicate vertex accepted")
	}
}

// TestInducedIntoReuseMatchesInduced carves random vertex sets of size
// large → small → large from two graphs through one InducedBuf, and checks
// every subgraph against a fresh Induced: same CSR arrays, edge count and
// maximum degree. It also carves balls into one reused buffer behind a
// kept prefix and checks them against Ball.
func TestInducedIntoReuseMatchesInduced(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 5))
	graphs := []*Graph{randomGraph(rng, 600, 6.0/600), randomGraph(rng, 90, 5.0/90)}
	var buf InducedBuf
	var balls []int
	for trial := range 60 {
		g := graphs[trial/15%2]
		size := 1 + rng.IntN(g.N())
		if trial%3 == 1 {
			size = 1 + rng.IntN(8)
		}
		verts := rng.Perm(g.N())[:size]
		got, err := g.InducedInto(&buf, verts)
		if err != nil {
			t.Fatal(err)
		}
		want, orig, err := g.Induced(verts)
		if err != nil {
			t.Fatal(err)
		}
		gotOff, gotNbr := got.CSR()
		wantOff, wantNbr := want.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotNbr, wantNbr) || got.M() != want.M() ||
			got.MaxDegree() != want.MaxDegree() || !slices.Equal(orig, verts) {
			t.Fatalf("trial %d (n=%d, %d vertices): InducedInto differs from Induced", trial, g.N(), size)
		}

		v, radius := rng.IntN(g.N()), rng.IntN(4)
		prefix := min(rng.IntN(3), len(balls))
		kept := slices.Clone(balls[:prefix])
		balls = g.AppendBall(balls[:prefix], v, radius, nil)
		if !slices.Equal(balls[:prefix], kept) || !slices.Equal(balls[prefix:], g.Ball(v, radius, nil)) {
			t.Fatalf("trial %d: AppendBall differs from Ball", trial)
		}
	}
	if _, err := graphs[0].InducedInto(&buf, []int{3, 3}); err == nil {
		t.Error("duplicate vertex accepted")
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(10), -1},
		{cycle(3), 3},
		{cycle(4), 4},
		{cycle(17), 17},
		{complete(5), 3},
		{MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}), 4},
	}
	for i, c := range cases {
		if got := c.g.Girth(nil); got != c.want {
			t.Errorf("case %d: girth=%d, want %d", i, got, c.want)
		}
	}
	// Petersen graph: girth 5.
	pet := petersen()
	if got := pet.Girth(nil); got != 5 {
		t.Errorf("petersen girth=%d, want 5", got)
	}
}

func petersen() *Graph {
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdgeOK(i, (i+1)%5)     // outer C5
		b.AddEdgeOK(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdgeOK(i, 5+i)         // spokes
	}
	return b.Graph()
}

func TestDegeneracy(t *testing.T) {
	if d := path(10).Degeneracy().Degeneracy; d != 1 {
		t.Errorf("path degeneracy=%d, want 1", d)
	}
	if d := cycle(10).Degeneracy().Degeneracy; d != 2 {
		t.Errorf("cycle degeneracy=%d, want 2", d)
	}
	if d := complete(6).Degeneracy().Degeneracy; d != 5 {
		t.Errorf("K6 degeneracy=%d, want 5", d)
	}
	res := complete(6).Degeneracy()
	if len(res.Order) != 6 {
		t.Errorf("order length=%d", len(res.Order))
	}
	// Order positions consistent.
	for i, v := range res.Order {
		if res.Pos[v] != i {
			t.Errorf("Pos[%d]=%d, want %d", v, res.Pos[v], i)
		}
	}
}

func TestDegeneracyOrderProperty(t *testing.T) {
	// In a smallest-last order, each vertex has ≤ degeneracy later neighbors.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30, 0.15)
		res := g.Degeneracy()
		for _, v := range res.Order {
			later := 0
			for _, w := range g.Neighbors(v) {
				if res.Pos[w] > res.Pos[v] {
					later++
				}
			}
			if later > res.Degeneracy {
				t.Fatalf("vertex %d has %d later neighbors > degeneracy %d",
					v, later, res.Degeneracy)
			}
		}
	}
}

func TestFindCliqueDPlus1(t *testing.T) {
	// K4 embedded in a sparse graph, d=3.
	b := NewBuilder(10)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdgeOK(i, j)
		}
	}
	b.AddEdgeOK(3, 4)
	b.AddEdgeOK(4, 5)
	b.AddEdgeOK(5, 6)
	g := b.Graph()
	clique := g.FindCliqueDPlus1(3)
	if len(clique) != 4 || !g.IsClique(clique) {
		t.Errorf("expected K4, got %v", clique)
	}
	// Path has no K3 for d=2.
	if c := path(10).FindCliqueDPlus1(2); c != nil {
		t.Errorf("path should have no triangle, got %v", c)
	}
	// C5: no K3.
	if c := cycle(5).FindCliqueDPlus1(2); c != nil {
		t.Errorf("C5 should have no triangle, got %v", c)
	}
	if c := complete(7).FindCliqueDPlus1(6); len(c) != 7 {
		t.Errorf("K7 should be found for d=6, got %v", c)
	}
}

func TestContainsTriangle(t *testing.T) {
	if ok, _ := cycle(6).ContainsTriangle(); ok {
		t.Error("C6 has no triangle")
	}
	ok, tri := complete(4).ContainsTriangle()
	if !ok {
		t.Fatal("K4 has a triangle")
	}
	g := complete(4)
	if !g.HasEdge(tri[0], tri[1]) || !g.HasEdge(tri[1], tri[2]) || !g.HasEdge(tri[0], tri[2]) {
		t.Error("returned triple is not a triangle")
	}
}

func TestIsCliqueHelper(t *testing.T) {
	g := complete(5)
	if !g.IsClique([]int{0, 1, 2, 3, 4}) {
		t.Error("K5 not recognized")
	}
	if cycle(5).IsClique([]int{0, 1, 2}) {
		t.Error("path in C5 marked clique")
	}
}
