package seqcolor

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// refBrooksTriple is brooksTriple before each candidate was tried by the
// BFS the greedy then colors in: it proves d−{x,y} connected with
// IsConnected and leaves the coloring order to a second BFS,
// reverseBFSOrder from z. It is the oracle for the one-BFS form.
func refBrooksTriple(d *graph.Graph, mask []bool) (x, y, z int, err error) {
	n := d.N()
	// Fast path: in well-connected graphs (the typical case) almost any
	// distance-2 pair works; try a bounded number of candidates before the
	// exhaustive block-structure search.
	tried := 0
	for zc := 0; zc < n && tried < 32; zc++ {
		nbrs := d.Neighbors(zc)
		for i := 0; i < len(nbrs) && tried < 32; i++ {
			for j := i + 1; j < len(nbrs) && tried < 32; j++ {
				a, b := int(nbrs[i]), int(nbrs[j])
				if d.HasEdge(a, b) {
					continue
				}
				tried++
				mask[a], mask[b] = false, false
				connected := d.IsConnected(mask)
				mask[a], mask[b] = true, true
				if connected {
					return a, b, zc, nil
				}
			}
		}
	}
	// Case 1: some z leaves a cut vertex in d−z ⇒ pick interior neighbors
	// of z in two different leaf blocks of d−z.
	for zc := 0; zc < n; zc++ {
		mask[zc] = false
		dec := d.Blocks(mask)
		mask[zc] = true
		hasCut := false
		for v := 0; v < n; v++ {
			if dec.IsCut[v] {
				hasCut = true
				break
			}
		}
		if !hasCut {
			continue
		}
		bt := graph.NewBlockTree(dec)
		leaves := leafBlocks(bt)
		var picks []int
		for _, li := range leaves {
			blk := &dec.Blocks[li]
			found := -1
			for _, v := range blk.Vertices {
				if !dec.IsCut[v] && d.HasEdge(zc, v) {
					found = v
					break
				}
			}
			if found >= 0 {
				picks = append(picks, found)
			}
			if len(picks) == 2 {
				break
			}
		}
		if len(picks) == 2 && !d.HasEdge(picks[0], picks[1]) {
			return picks[0], picks[1], zc, nil
		}
	}
	// Case 2: d is 3-connected — any non-adjacent pair at distance 2 works.
	for zc := 0; zc < n; zc++ {
		nbrs := d.Neighbors(zc)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := int(nbrs[i]), int(nbrs[j])
				if d.HasEdge(a, b) {
					continue
				}
				mask[a], mask[b] = false, false
				connected := d.IsConnected(mask)
				mask[a], mask[b] = true, true
				if connected {
					return a, b, zc, nil
				}
			}
		}
	}
	return 0, 0, 0, fmt.Errorf("seqcolor: internal: no Brooks triple found (is the block complete or a cycle?)")
}

// TestBrooksTripleMatchesReference checks the one-BFS brooksTriple against
// refBrooksTriple plus reverseBFSOrder from z over d−{x,y}: the same triple
// and the same coloring order, on random 2-connected 3- and 4-regular
// graphs and on the spanning ball of regular:100000,3 (the whole graph of
// the color-sparse workload, which its Theorem 1.1 step colors as one
// Brooks block).
func TestBrooksTripleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	var graphs []*graph.Graph
	for len(graphs) < 60 {
		g, err := gen.RandomRegular(6+2*rng.IntN(60), 3+rng.IntN(2), rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Blocks(nil).Blocks) == 1 { // n ≥ 6: never complete
			graphs = append(graphs, g)
		}
	}
	g, err := gen.RandomRegular(100000, 3, rand.New(rand.NewPCG(1, 0x2545f4914f6cdd1d)))
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, g)
	var w Workspace
	for i, d := range graphs {
		n := d.N()
		x, y, z, order, err := w.brooksTriple(d, w.maskAllBut(n, -1, -1))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if order == nil {
			order = w.reverseBFSOrder(d, z, w.maskAllBut(n, x, y))
		}
		order = slices.Clone(order)
		rx, ry, rz, err := refBrooksTriple(d, w.maskAllBut(n, -1, -1))
		if err != nil {
			t.Fatalf("graph %d: oracle: %v", i, err)
		}
		want := w.reverseBFSOrder(d, rz, w.maskAllBut(n, rx, ry))
		if x != rx || y != ry || z != rz || !slices.Equal(order, want) {
			t.Fatalf("graph %d (n=%d): triple (%d,%d,%d), oracle (%d,%d,%d); orders equal: %v",
				i, n, x, y, z, rx, ry, rz, slices.Equal(order, want))
		}
	}
}
