package seqcolor

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// builderBlockGraph is how colorBadBlock used to materialize a block: sort
// its vertices, index them through a map and add every block edge to a
// Builder. It is the oracle for blockGraph.
func builderBlockGraph(t *testing.T, blk *graph.Block) (*graph.Graph, []int) {
	t.Helper()
	verts := append([]int(nil), blk.Vertices...)
	sort.Ints(verts)
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	b := graph.NewBuilder(len(verts))
	for _, e := range blk.Edges {
		if err := b.AddEdge(idx[e[0]], idx[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Graph(), verts
}

// checkBlockGraph asserts that blockGraph yields the Builder graph's CSR
// arrays, edge count, maximum degree and vertex mapping.
func checkBlockGraph(t *testing.T, name string, g *graph.Graph, blk *graph.Block) *graph.Graph {
	t.Helper()
	d, verts, err := new(Workspace).blockGraph(g, blk)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantVerts := builderBlockGraph(t, blk)
	gotOff, gotNbr := d.CSR()
	wantOff, wantNbr := want.CSR()
	if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotNbr, wantNbr) {
		t.Fatalf("%s: block CSR differs from the Builder graph", name)
	}
	if d.M() != want.M() || d.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: m=%d maxdeg=%d, Builder m=%d maxdeg=%d", name, d.M(), d.MaxDegree(), want.M(), want.MaxDegree())
	}
	for i, v := range wantVerts {
		got := i
		if verts != nil {
			got = verts[i]
		}
		if got != v {
			t.Fatalf("%s: block vertex %d maps to %d, Builder %d", name, i, got, v)
		}
	}
	return d
}

func TestBlockGraphProperPartWithPendants(t *testing.T) {
	// An even cycle with a triangle hanging off every vertex: the cycle is
	// the only bad block, and with tight lists everywhere the triangles are
	// peeled before colorBadBlock sees it.
	g := gen.WithPendantCliques(gen.Cycle(6), 3)
	dec := g.Blocks(nil)
	bad := graph.FirstBadBlock(dec)
	if bad < 0 {
		t.Fatal("no bad block")
	}
	blk := &dec.Blocks[bad]
	if len(blk.Vertices) != 6 || len(blk.Vertices) == g.N() {
		t.Fatalf("bad block has %d of %d vertices, want the 6-cycle", len(blk.Vertices), g.N())
	}
	if d := checkBlockGraph(t, "pendant C6", g, blk); d == g {
		t.Fatal("a proper block must get its own graph")
	}
	lists := make([][]int, g.N())
	for v := range lists {
		for c := 0; c < g.Degree(v); c++ {
			lists[v] = append(lists[v], c)
		}
	}
	colors := freshColors(g.N())
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestBlockGraphSpansGraph(t *testing.T) {
	for _, g := range []*graph.Graph{gen.CyclePower(40, 2), gen.TorusGrid(6, 8), petersen()} {
		dec := g.Blocks(nil)
		if len(dec.Blocks) != 1 || len(dec.Blocks[0].Vertices) != g.N() {
			t.Fatalf("n=%d: want one spanning block, got %d blocks", g.N(), len(dec.Blocks))
		}
		if d := checkBlockGraph(t, fmt.Sprintf("spanning n=%d", g.N()), g, &dec.Blocks[0]); d != g {
			t.Fatal("a spanning block must reuse g itself")
		}
	}
}

func TestBlockGraphRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.IntN(80)
		g := gen.GNP(n, 3/float64(n), rng)
		dec := g.Blocks(nil)
		for i := range dec.Blocks {
			checkBlockGraph(t, fmt.Sprintf("trial %d block %d", trial, i), g, &dec.Blocks[i])
		}
	}
}
