package graph

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// bruteForceBlocks computes blocks via the definition: two edges are in the
// same block iff they lie on a common cycle (equivalence closure), each
// bridge is its own block. Implemented by: for each pair of edges check if
// there is a cycle through both — done by removing the rest... Simpler
// equivalent: vertices u,v are 2-edge... We instead verify properties rather
// than recompute: see the property tests below.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func TestBlocksPath(t *testing.T) {
	g := path(5)
	dec := g.Blocks(nil)
	if len(dec.Blocks) != 4 {
		t.Fatalf("path blocks=%d, want 4", len(dec.Blocks))
	}
	for i := range dec.Blocks {
		if len(dec.Blocks[i].Edges) != 1 {
			t.Errorf("path block has %d edges, want 1", len(dec.Blocks[i].Edges))
		}
	}
	// internal vertices are cut vertices
	for v := 1; v <= 3; v++ {
		if !dec.IsCut[v] {
			t.Errorf("vertex %d should be a cut vertex", v)
		}
	}
	if dec.IsCut[0] || dec.IsCut[4] {
		t.Error("endpoints should not be cut vertices")
	}
}

func TestBlocksCycle(t *testing.T) {
	g := cycle(6)
	dec := g.Blocks(nil)
	if len(dec.Blocks) != 1 {
		t.Fatalf("cycle blocks=%d, want 1", len(dec.Blocks))
	}
	if len(dec.Blocks[0].Vertices) != 6 || len(dec.Blocks[0].Edges) != 6 {
		t.Error("cycle block shape wrong")
	}
	for v := 0; v < 6; v++ {
		if dec.IsCut[v] {
			t.Errorf("cycle has no cut vertices, %d marked", v)
		}
	}
}

func TestBlocksTwoTrianglesSharedVertex(t *testing.T) {
	// bowtie: triangles {0,1,2} and {2,3,4} share vertex 2
	g := MustNew(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	dec := g.Blocks(nil)
	if len(dec.Blocks) != 2 {
		t.Fatalf("bowtie blocks=%d, want 2", len(dec.Blocks))
	}
	if !dec.IsCut[2] {
		t.Error("shared vertex should be cut")
	}
	if len(dec.BlocksOf[2]) != 2 {
		t.Errorf("vertex 2 in %d blocks, want 2", len(dec.BlocksOf[2]))
	}
	for v := 0; v < 5; v++ {
		if v != 2 && dec.IsCut[v] {
			t.Errorf("vertex %d wrongly marked cut", v)
		}
	}
}

func TestBlocksWithMask(t *testing.T) {
	g := cycle(6)
	mask := []bool{true, true, true, true, true, false}
	dec := g.Blocks(mask)
	// cycle minus a vertex = path on 5 vertices = 4 bridge blocks
	if len(dec.Blocks) != 4 {
		t.Fatalf("masked cycle blocks=%d, want 4", len(dec.Blocks))
	}
}

func TestBlockEdgePartitionProperty(t *testing.T) {
	// The blocks partition the edge set exactly.
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 24, 0.1)
		dec := g.Blocks(nil)
		seen := map[[2]int]int{}
		for _, blk := range dec.Blocks {
			for _, e := range blk.Edges {
				seen[edgeKey(e[0], e[1])]++
			}
		}
		if len(seen) != g.M() {
			t.Fatalf("trial %d: blocks cover %d distinct edges, graph has %d",
				trial, len(seen), g.M())
		}
		for e, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("trial %d: edge %v in %d blocks", trial, e, cnt)
			}
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("trial %d: phantom edge %v", trial, e)
			}
		}
	}
}

func TestArticulationBruteForce(t *testing.T) {
	// IsCut[v] ⟺ removing v increases the number of components among the
	// remaining vertices of v's component.
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 16, 0.12)
		dec := g.Blocks(nil)
		comps := g.Components(nil)
		compID := make([]int, g.N())
		for ci, comp := range comps {
			for _, v := range comp {
				compID[v] = ci
			}
		}
		for v := 0; v < g.N(); v++ {
			// count components of g's component of v, after removing v
			compSize := len(comps[compID[v]])
			if compSize == 1 {
				if dec.IsCut[v] {
					t.Fatalf("isolated vertex %d marked cut", v)
				}
				continue
			}
			mask := make([]bool, g.N())
			for _, u := range comps[compID[v]] {
				mask[u] = true
			}
			mask[v] = false
			sub := g.Components(mask)
			wantCut := len(sub) > 1
			if dec.IsCut[v] != wantCut {
				t.Fatalf("trial %d: vertex %d IsCut=%v, brute force=%v",
					trial, v, dec.IsCut[v], wantCut)
			}
		}
	}
}

func TestBlockVerticesTwoConnectedProperty(t *testing.T) {
	// Every block with ≥ 3 vertices must be 2-connected: no cut vertex
	// inside the block's induced-on-block-edges graph.
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 18, 0.15)
		dec := g.Blocks(nil)
		for _, blk := range dec.Blocks {
			if len(blk.Vertices) < 3 {
				continue
			}
			bg := blockGraph(&blk)
			sub := bg.Blocks(nil)
			if len(sub.Blocks) != 1 {
				t.Fatalf("block splits into %d sub-blocks", len(sub.Blocks))
			}
		}
	}
}

// blockGraph materializes a Block as its own Graph.
func blockGraph(b *Block) *Graph {
	idx := map[int]int{}
	for i, v := range b.Vertices {
		idx[v] = i
	}
	bld := NewBuilder(len(b.Vertices))
	for _, e := range b.Edges {
		bld.AddEdgeOK(idx[e[0]], idx[e[1]])
	}
	return bld.Graph()
}

func TestGallaiRecognition(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path", path(6), true},
		{"odd cycle", cycle(5), true},
		{"even cycle", cycle(6), false},
		{"K4", complete(4), true},
		{"K4 minus edge (diamond)", MustNew(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}}), false},
		{"bowtie", MustNew(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}), true},
		{"C5 with pendant", MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5}}), true},
		{"C4 with pendant", MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}}), false},
		{"petersen", petersen(), false},
		{"empty", MustNew(3, nil), true},
	}
	for _, c := range cases {
		if got := gallai(c.g); got != c.want {
			t.Errorf("%s: IsGallaiForest=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestGallaiComplexExample(t *testing.T) {
	// Figure 1-style Gallai tree: K4 + odd cycle + triangle + edges glued at
	// cut vertices.
	b := NewBuilder(12)
	// K4 on 0..3
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdgeOK(i, j)
		}
	}
	// C5 on 3..7 sharing vertex 3
	c5 := []int{3, 4, 5, 6, 7}
	for i := range c5 {
		b.AddEdgeOK(c5[i], c5[(i+1)%5])
	}
	// triangle at 7
	b.AddEdgeOK(7, 8)
	b.AddEdgeOK(8, 9)
	b.AddEdgeOK(7, 9)
	// pendant path at 0
	b.AddEdgeOK(0, 10)
	b.AddEdgeOK(10, 11)
	g := b.Graph()
	if !gallai(g) {
		t.Error("figure-1 style Gallai tree not recognized")
	}
	// Adding a chord to the C5 breaks it.
	b2 := NewBuilder(12)
	for _, e := range g.Edges() {
		b2.AddEdgeOK(e[0], e[1])
	}
	b2.AddEdgeOK(4, 6)
	if gallai(b2.Graph()) {
		t.Error("C5+chord should not be a Gallai tree")
	}
}

func TestGallaiBruteForceProperty(t *testing.T) {
	// Cross-check IsGallaiForest against a direct per-block check computed
	// from scratch on random graphs.
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 14, 0.13)
		dec := g.Blocks(nil)
		want := true
		for i := range dec.Blocks {
			bg := blockGraph(&dec.Blocks[i])
			k := bg.N()
			isClique := bg.M() == k*(k-1)/2
			isOddCyc := k >= 3 && k%2 == 1 && bg.M() == k && bg.MaxDegree() == 2 && bg.MinDegree() == 2 && bg.IsConnected(nil)
			if !isClique && !isOddCyc {
				want = false
			}
		}
		if got := gallai(g); got != want {
			t.Fatalf("trial %d: IsGallaiForest=%v, want %v", trial, got, want)
		}
	}
}

func TestBlockTreePeelOrder(t *testing.T) {
	// bowtie + pendant: blocks T1={0,1,2}, T2={2,3,4}, bridge {4,5}
	g := MustNew(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}})
	dec := g.Blocks(nil)
	bt := NewBlockTree(dec)
	// root at the block containing vertex 0
	root := dec.BlocksOf[0][0]
	order, toward := bt.PeelOrder(root)
	if len(order) != 3 {
		t.Fatalf("peel order covers %d blocks, want 3", len(order))
	}
	if order[0] != root || toward[0] != -1 {
		t.Error("root must come first with toward=-1")
	}
	// every non-root block's toward vertex must be a cut vertex in it
	for i := 1; i < len(order); i++ {
		blk := dec.Blocks[order[i]]
		found := false
		for _, v := range blk.Vertices {
			if v == toward[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("toward vertex %d not in block %d", toward[i], order[i])
		}
	}
}

func TestFirstBadBlock(t *testing.T) {
	g := cycle(6)
	dec := g.Blocks(nil)
	if FirstBadBlock(dec) == -1 {
		t.Error("C6 should have a bad block")
	}
	dec = complete(4).Blocks(nil)
	if FirstBadBlock(dec) != -1 {
		t.Error("K4 should have no bad block")
	}
}

// refBlockIsGood is the block test gallaiBlock replaced, kept as its
// oracle: a clique by its edge count, an odd cycle by its length and by
// every vertex having degree 2 within the block.
func refBlockIsGood(b *Block) bool {
	k := len(b.Vertices)
	if len(b.Edges) == k*(k-1)/2 {
		return true
	}
	if k < 3 || k%2 == 0 || len(b.Edges) != k {
		return false
	}
	deg := make(map[int]int, k)
	for _, e := range b.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for _, d := range deg {
		if d != 2 {
			return false
		}
	}
	return true
}

// TestGallaiBlockMatchesReference checks the (k, m) block test against the
// degree-checking one on every block of random graphs, dense and sparse.
func TestGallaiBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	good, bad := 0, 0
	for trial := range 200 {
		n := 3 + rng.IntN(40)
		g := randomGraph(rng, n, (1+rng.Float64()*4)/float64(n))
		if trial%4 == 0 {
			g = cycle(n)
		}
		dec := g.Blocks(nil)
		for i := range dec.Blocks {
			b := &dec.Blocks[i]
			want := refBlockIsGood(b)
			if got := gallaiBlock(len(b.Vertices), len(b.Edges)); got != want {
				t.Fatalf("trial %d block %d (%d vertices, %d edges): gallaiBlock %v, reference %v",
					trial, i, len(b.Vertices), len(b.Edges), got, want)
			}
			if want {
				good++
			} else {
				bad++
			}
		}
		if (FirstBadBlock(dec) == -1) != gallai(g) {
			t.Fatalf("trial %d: FirstBadBlock and IsGallaiForest disagree", trial)
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("%d good and %d bad blocks; want both > 0", good, bad)
	}
}

func TestBlocksOfSorted(t *testing.T) {
	// sanity: BlocksOf lists consistent with Blocks membership
	g := MustNew(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	dec := g.Blocks(nil)
	for v := 0; v < 5; v++ {
		for _, bi := range dec.BlocksOf[v] {
			vs := append([]int(nil), dec.Blocks[bi].Vertices...)
			sort.Ints(vs)
			i := sort.SearchInts(vs, v)
			if i >= len(vs) || vs[i] != v {
				t.Errorf("BlocksOf[%d] includes block %d not containing it", v, bi)
			}
		}
	}
}
