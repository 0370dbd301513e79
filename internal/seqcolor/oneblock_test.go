package seqcolor

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// wheel returns the wheel on a rim of k ≥ 4 vertices (vertex k is the hub):
// 2-connected and neither complete nor a cycle.
func wheel(k int) *graph.Graph {
	var edges [][2]int
	for i := range k {
		edges = append(edges, [2]int{i, (i + 1) % k}, [2]int{i, k})
	}
	return graph.MustNew(k+1, edges)
}

// badBlocks returns random 2-connected graphs that are neither complete
// nor odd cycles: random 3- and 4-regular graphs (those that are
// 2-connected), cycle powers, wheels and even cycles.
func badBlocks(t *testing.T, rng *rand.Rand) []*graph.Graph {
	var out []*graph.Graph
	for len(out) < 12 {
		g, err := gen.RandomRegular(8+2*rng.IntN(40), 3+rng.IntN(2), rng)
		if err != nil {
			t.Fatal(err)
		}
		if dec := g.Blocks(nil); len(dec.Blocks) == 1 && graph.FirstBadBlock(dec) == 0 {
			out = append(out, g)
		}
	}
	for range 6 {
		k := 2 + rng.IntN(3)
		out = append(out, gen.CyclePower(2*k+2+rng.IntN(30), k))
		out = append(out, wheel(4+rng.IntN(30)))
		out = append(out, gen.Cycle(4+2*rng.IntN(20)))
	}
	for _, g := range out {
		if dec := g.Blocks(nil); len(dec.Blocks) != 1 || graph.FirstBadBlock(dec) != 0 {
			t.Fatalf("test input %v is not one bad block", g)
		}
	}
	return out
}

// blockLists returns tight lists of g in one of three shapes: one common
// palette, in one order on regular graphs (0); a common palette in a
// random order per vertex (1); random lists (2). Non-regular graphs get
// random lists for every shape.
func blockLists(g *graph.Graph, shape int, rng *rand.Rand) [][]int {
	k := g.MaxDegree()
	if g.MinDegree() != k {
		shape = 2
	}
	switch shape {
	case 0:
		return UniformLists(g.N(), k)
	case 1:
		lists := make([][]int, g.N())
		for v := range lists {
			lists[v] = rng.Perm(k)
		}
		return lists
	default:
		return degreeLists(g, 0, k+2, rng)
	}
}

// edgeWithOwnColor is step (b)'s edge scan with no shortcut: the first
// edge (u, x) with a color in eff[u] \ eff[x], or u = -1.
func edgeWithOwnColor(d *graph.Graph, eff [][]int) (u, x int) {
	for u := range d.N() {
		for _, x := range d.Neighbors(u) {
			if _, ok := colorInFirstNotSecond(eff[u], eff[x]); ok {
				return u, int(x)
			}
		}
	}
	return -1, -1
}

// TestSameListsSkipsOnlyEmptyScans checks the shortcut of step (b) against
// its full edge scan on bad blocks: whenever sameLists holds, the scan
// finds no edge. The inputs are identical lists, one palette in differing
// orders, one list changed at the first, the last or a random vertex, and
// random lists; identical lists must take the shortcut.
func TestSameListsSkipsOnlyEmptyScans(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 3))
	for i, g := range badBlocks(t, rng) {
		k := g.MaxDegree()
		for shape := range 6 {
			var eff [][]int
			switch shape {
			case 0, 1:
				eff = blockLists(g, shape, rng)
			case 2, 3, 4:
				eff = UniformLists(g.N(), k)
				v := []int{0, g.N() - 1, rng.IntN(g.N())}[shape-2]
				eff[v] = append(slices.Clone(eff[v][:k-1]), k)
			default:
				eff = blockLists(g, 2, rng)
			}
			same := Given(eff).same(len(eff))
			if u, x := edgeWithOwnColor(g, eff); same && u >= 0 {
				t.Fatalf("graph %d shape %d: lists taken as equal, but edge (%d, %d) has a color of its own", i, shape, u, x)
			}
			if identical := shape == 0 && g.MinDegree() == k; identical && !same {
				t.Fatalf("graph %d: identical lists not taken as equal", i)
			}
		}
	}
}

// numColorsMap is the map count NumColors replaced: the oracle.
func numColorsMap(colors []int) int {
	set := map[int]bool{}
	for _, c := range colors {
		if c != Uncolored {
			set[c] = true
		}
	}
	return len(set)
}

// TestNumColorsMatchesMap compares NumColors with the map count on dense
// colorings, sparse ones, uncolored entries and outliers beyond the dense
// range (huge, negative, the extremes of int).
func TestNumColorsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 5))
	for trial := range 400 {
		n := rng.IntN(200)
		colors := make([]int, n)
		for i := range colors {
			switch r := rng.IntN(20); {
			case r == 0:
				colors[i] = Uncolored
			case r == 1:
				colors[i] = []int{math.MaxInt, math.MinInt, -2, 2*n + 64, 2*n + 63, 1 << 40}[rng.IntN(6)]
			case r < 10:
				colors[i] = rng.IntN(8)
			default:
				colors[i] = rng.IntN(3*n + 100)
			}
		}
		if got, want := NumColors(colors), numColorsMap(colors); got != want {
			t.Fatalf("trial %d: NumColors %d, map count %d (%v)", trial, got, want, colors)
		}
	}
}
