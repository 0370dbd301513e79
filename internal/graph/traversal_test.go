package graph

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// bfsView is everything one Run exposes: the visit order, and Dist and
// Parent at every vertex of the graph.
type bfsView struct {
	order        []int32
	dist, parent []int
}

func viewOf(t *Traversal, g *Graph) bfsView {
	v := bfsView{order: slices.Clone(t.Order())}
	for u := 0; u < g.N(); u++ {
		v.dist = append(v.dist, t.Dist(u))
		v.parent = append(v.parent, t.Parent(u))
	}
	return v
}

// freshView runs one search on a traversal nothing else has touched.
func freshView(g *Graph, sources []int, mask []bool, radius int) bfsView {
	t := new(Traversal).Bind(g)
	t.Run(sources, mask, radius)
	return viewOf(t, g)
}

func sameView(a, b bfsView) bool {
	return slices.Equal(a.order, b.order) && slices.Equal(a.dist, b.dist) && slices.Equal(a.parent, b.parent)
}

// randomSearch draws sources, an optional mask and a radius for g.
func randomSearch(rng *rand.Rand, g *Graph) (sources []int, mask []bool, radius int) {
	n := g.N()
	for k := 1 + rng.IntN(3); k > 0; k-- {
		sources = append(sources, rng.IntN(n))
	}
	if rng.IntN(2) == 0 {
		mask = make([]bool, n)
		for v := range mask {
			mask[v] = rng.Float64() < 0.8
		}
	}
	return sources, mask, rng.IntN(6) - 1
}

// TestTraversalRebindMatchesFresh binds one traversal to graphs of size
// large → small → large (and back) and checks that every search on it gives
// exactly the order, distances and parents of a fresh traversal.
func TestTraversalRebindMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 6))
	large1 := randomGraph(rng, 1500, 4.0/1500)
	small := cycle(9)
	large2 := randomGraph(rng, 2500, 3.0/2500)
	tr := &Traversal{}
	for step, g := range []*Graph{large1, small, large2, small, large1} {
		tr.Bind(g)
		for k := 0; k < 8; k++ {
			sources, mask, radius := randomSearch(rng, g)
			tr.Run(sources, mask, radius)
			if !sameView(viewOf(tr, g), freshView(g, sources, mask, radius)) {
				t.Fatalf("step %d (n=%d) search %d: rebound traversal differs from a fresh one", step, g.N(), k)
			}
		}
	}
}

// TestTraversalEpochWrapAfterRebind puts the epoch at the wrap point right
// before a rebind, so the stamp clearing runs on arrays sized for another
// graph, and checks every following search against a fresh traversal. The
// large graph carries patches stamped with the small epochs the searches
// after the wrap reuse, so a stamp the wrap fails to clear shows up as a
// vertex wrongly taken as already reached.
func TestTraversalEpochWrapAfterRebind(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 7))
	large := randomGraph(rng, 1200, 4.0/1200)
	small := path(11)
	for _, start := range []uint32{^uint32(0), ^uint32(0) - 1} {
		tr := &Traversal{}
		tr.Bind(large)
		for e := 0; e < 40; e++ {
			tr.Run([]int{rng.IntN(large.N())}, nil, 3)
		}
		tr.epoch = start
		for step, g := range []*Graph{small, small, large, large, small, large, large, large} {
			tr.Bind(g)
			sources, mask, radius := randomSearch(rng, g)
			tr.Run(sources, mask, radius)
			if !sameView(viewOf(tr, g), freshView(g, sources, mask, radius)) {
				t.Fatalf("start epoch %d, step %d (n=%d): traversal differs from a fresh one", start, step, g.N())
			}
		}
	}
}

// TestTraversalRebind binds one traversal to graphs of 7, 60, 900 and
// 2,000 vertices and back to 7, and on each interleaves searches, block
// decompositions, Gallai tests and induced copies, checking every result
// against a fresh traversal. A block DFS walks the last search's order and
// must leave that search intact; an induced copy of the vertices the
// search just stamped must not take them for listed twice.
func TestTraversalRebind(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 8))
	var graphs []*Graph
	for _, n := range []int{7, 60, 900, 2000} {
		graphs = append(graphs, randomGraph(rng, n, 3.0/float64(n)))
	}
	graphs = append(graphs, graphs[0])
	tr := &Traversal{}
	var buf InducedBuf
	for step, g := range graphs {
		tr.Bind(g)
		for k := range 6 {
			name := fmt.Sprintf("step %d (n=%d) round %d", step, g.N(), k)
			sources, mask, radius := randomSearch(rng, g)
			tr.Run(sources, mask, radius)
			want := freshView(g, sources, mask, radius)
			if !sameView(viewOf(tr, g), want) {
				t.Fatalf("%s: search differs from a fresh traversal", name)
			}

			reached := tr.Order()
			inSearch := make([]bool, g.N())
			for _, v := range reached {
				inSearch[v] = true
			}
			gotOK, gotBad := tr.IsGallaiForest(reached, inSearch)
			wantOK, wantBad := new(Traversal).Bind(g).IsGallaiForest(slices.Clone(reached), inSearch)
			if gotOK != wantOK || gotBad != wantBad {
				t.Fatalf("%s: Gallai test (%v, %d), fresh (%v, %d)", name, gotOK, gotBad, wantOK, wantBad)
			}
			if !reflect.DeepEqual(tr.Blocks(mask), new(Traversal).Bind(g).Blocks(mask)) {
				t.Fatalf("%s: block decomposition differs from a fresh traversal", name)
			}
			if !sameView(viewOf(tr, g), want) {
				t.Fatalf("%s: a block DFS changed the last search", name)
			}

			verts := make([]int, 0, len(reached))
			for _, v := range reached {
				verts = append(verts, int(v))
			}
			rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
			got, err := tr.InducedInto(&buf, verts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh, err := new(Traversal).Bind(g).InducedInto(new(InducedBuf), verts)
			if err != nil {
				t.Fatal(err)
			}
			gotOff, gotNbr := got.CSR()
			wantOff, wantNbr := fresh.CSR()
			if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotNbr, wantNbr) {
				t.Fatalf("%s: induced copy of %d vertices differs from a fresh traversal", name, len(verts))
			}
		}
	}
}
