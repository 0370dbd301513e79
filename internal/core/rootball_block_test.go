package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/seqcolor"
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

// necklace returns k ≥ 2 diamonds (K4 less an edge) in a ring, each
// diamond's ends joined to its neighbors' ends: 3-regular, 2-connected and
// not 3-connected. The Brooks fast path fails from a diamond's middle
// vertex, whose two neighbors outside each other cut it off with the other
// middle vertex, and succeeds from a later vertex.
func necklace(k int) *graph.Graph {
	var edges [][2]int
	for i := range k {
		x, p, q, y := 4*i, 4*i+1, 4*i+2, 4*i+3
		edges = append(edges, [2]int{x, p}, [2]int{x, q}, [2]int{p, q}, [2]int{p, y}, [2]int{q, y}, [2]int{y, 4 * ((i + 1) % k)})
	}
	return graph.MustNew(4*k, edges)
}

// oneBadBlock reports whether g is one bad block: connected, 2-connected
// and neither complete nor an odd cycle.
func oneBadBlock(g *graph.Graph) bool {
	dec := g.Blocks(nil)
	return len(dec.Blocks) == 1 && len(dec.Blocks[0].Vertices) == g.N() && graph.FirstBadBlock(dec) == 0
}

// badBlockGraphs returns random graphs that are one bad block: random 3-
// and 4-regular graphs (those that are 2-connected), cycle powers, wheels,
// even cycles and necklaces.
func badBlockGraphs(t *testing.T, rng *rand.Rand) []*graph.Graph {
	var out []*graph.Graph
	for len(out) < 12 {
		g, err := gen.RandomRegular(8+2*rng.IntN(40), 3+rng.IntN(2), rng)
		if err != nil {
			t.Fatal(err)
		}
		if oneBadBlock(g) {
			out = append(out, g)
		}
	}
	for range 6 {
		k := 2 + rng.IntN(3)
		out = append(out, gen.CyclePower(2*k+2+rng.IntN(30), k))
		out = append(out, wheel(4+rng.IntN(30)))
		out = append(out, gen.Cycle(4+2*rng.IntN(20)))
		out = append(out, necklace(2+rng.IntN(12)))
	}
	for _, g := range out {
		if !oneBadBlock(g) {
			t.Fatalf("test input %v is not one bad block", g)
		}
	}
	return out
}

// badBlockLists returns lists of g in one of seven shapes: tight ones (0:
// one common palette, in one order on regular graphs; 1: a common palette
// in a random order per vertex; 2: random lists), random lists with a
// surplus at about a third of the vertices (3), random lists with one list
// shorter than its degree (4), a common palette with a negative and a
// too-large color in a random order per vertex (5), and two palettes that
// differ in one color, one on each half of the vertices (6). Non-regular
// graphs get random lists for shapes 0, 1, 5 and 6.
func badBlockLists(g *graph.Graph, shape int, rng *rand.Rand) [][]int {
	k := g.MaxDegree()
	if g.MinDegree() != k && (shape < 2 || shape >= 5) {
		shape = 2
	}
	lists := make([][]int, g.N())
	for v := range lists {
		switch shape {
		case 0:
			lists[v] = seqcolor.UniformLists(1, k)[0]
		case 1:
			lists[v] = rng.Perm(k)
		case 5:
			lists[v] = rng.Perm(k)
			for i, c := range lists[v] {
				switch c {
				case 0:
					lists[v][i] = -3
				case 1:
					lists[v][i] = 1 << 21
				}
			}
		case 6:
			lists[v] = seqcolor.UniformLists(1, k)[0]
			if v >= g.N()/2 {
				lists[v] = append(slices.Clone(lists[v][1:]), k)
			}
		default:
			lists[v] = rng.Perm(k + 2)[:g.Degree(v)]
			if shape == 3 && rng.IntN(3) == 0 {
				lists[v] = rng.Perm(k + 3)[:g.Degree(v)+1]
			}
		}
	}
	if shape == 4 {
		v := rng.IntN(g.N())
		lists[v] = lists[v][1:]
	}
	return lists
}

// withPendants returns g with a leaf hung on about half of its vertices
// (the leaves numbered from g.N() on) and, for each vertex, its leaf or -1.
func withPendants(g *graph.Graph, rng *rand.Rand) (*graph.Graph, []int) {
	edges := g.Edges()
	leaf := make([]int, g.N())
	n := g.N()
	for v := range leaf {
		leaf[v] = -1
		if rng.IntN(2) == 0 {
			leaf[v] = n
			edges = append(edges, [2]int{v, n})
			n++
		}
	}
	return graph.MustNew(n, edges), leaf
}

// ballPath names the branch of Theorem 1.1 the induced copy of ball takes:
// "surplus" when some effective list exceeds its vertex's degree in the
// copy, else "b" when an edge (u, x) has a color of u's effective list
// missing from x's, else "c" (the Brooks case or an error).
func ballPath(g *graph.Graph, colors []int, lists [][]int, ball []int) string {
	sub, orig, err := g.Induced(ball)
	if err != nil {
		panic(err)
	}
	eff := new(seqcolor.Workspace).EffectiveLists(g, colors, seqcolor.Given(lists), orig)
	for i := range orig {
		if len(eff[i]) > sub.Degree(i) {
			return "surplus"
		}
	}
	for u := range sub.N() {
		for _, x := range sub.Neighbors(u) {
			if slices.ContainsFunc(eff[u], func(c int) bool { return !slices.Contains(eff[x], c) }) {
				return "b"
			}
		}
	}
	return "c"
}

// TestRootBallBadBlockHostMatchesFresh holds the in-place path of one-block
// balls to the fresh induced-copy path (colorBallFresh). The inputs are
// bad blocks (random 3- and 4-regular graphs, cycle powers, wheels, even
// cycles, necklaces of diamonds) under tight, permuted, random, surplus, short, far-color
// and two-palette lists, relabeled and carved with AppendBall: balls spanning the host,
// balls spanning the block inside a host that hangs a leaf on about half
// of its vertices, colored or not, and balls of radius 1 to 3 inside
// either, with the oneBlock verdict of their induced subgraph. For each
// ball colorBallTheorem11 must give the fresh path's colors and error, and
// ColorBall must take every one-block ball whose copy succeeds through a
// surplus vertex or step (b), leave every ball it does not take
// uncolored, and take no tight ball that is not one block.
func TestRootBallBadBlockHostMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	var ws ballWorkspace
	var tr graph.Traversal
	inPlace := map[string]int{}
	var spanning, embedded, fallback, errs int
	check := func(name string, g *graph.Graph, colors []int, lists [][]int, ball []int) {
		sub, _, err := g.Induced(ball)
		if err != nil {
			t.Fatal(err)
		}
		oneBlock := oneBadBlock(sub)
		name = fmt.Sprintf("%s (%d of %d vertices, one block %v)", name, len(ball), g.N(), oneBlock)
		want := slices.Clone(colors)
		wantErr := colorBallFresh(g, want, lists, ball)
		got := slices.Clone(colors)
		gotErr := colorBallTheorem11(g, &tr, got, seqcolor.Given(lists), ball, oneBlock, &ws)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, fresh path %v", name, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: colors differ from the fresh path", name)
		}
		got = slices.Clone(colors)
		done := ws.seq.ColorBall(g, got, seqcolor.Given(lists), ball, oneBlock)
		path := ballPath(g, colors, lists, ball)
		// Only a ball spanning g takes lists with colors listWidth rejects.
		far := len(ball) < g.N() && slices.ContainsFunc(ball, func(v int) bool {
			return slices.ContainsFunc(lists[v], func(c int) bool { return c < 0 || c >= 1<<20 })
		})
		switch {
		case done && !slices.Equal(got, want):
			t.Fatalf("%s: ColorBall colors differ from the fresh path", name)
		case !done && !slices.Equal(got, colors):
			t.Fatalf("%s: ColorBall fell back but changed colors", name)
		case !done && oneBlock && wantErr == nil && path != "c" && !far:
			t.Fatalf("%s: ColorBall fell back on a one-block ball that takes path %s", name, path)
		case done && !oneBlock && path != "surplus":
			t.Fatalf("%s: ColorBall took a tight ball that is not one block", name)
		case done && len(ball) == g.N():
			spanning++
		case done && oneBlock:
			embedded++
		}
		switch {
		case done:
			inPlace[path]++
		case wantErr != nil:
			errs++
		default:
			fallback++
		}
	}
	for i, b := range badBlockGraphs(t, rng) {
		for shape := range 7 {
			lists := badBlockLists(b, shape, rng)
			// The block as the whole host.
			perm := rng.Perm(b.N())
			g := relabel(b, perm)
			hostLists := make([][]int, g.N())
			for v, p := range perm {
				hostLists[p] = lists[v]
			}
			colors := make([]int, g.N())
			for v := range colors {
				colors[v] = Uncolored
			}
			name := fmt.Sprintf("block %d shape %d", i, shape)
			root := rng.IntN(g.N())
			check(name+" spanning", g, colors, hostLists, g.Ball(root, -1, nil))
			check(name+" small", g, colors, hostLists, g.Ball(root, 1+rng.IntN(3), nil))

			// The block inside a host with a leaf on half its vertices, the
			// leaf colored outside the block's palette (or, one in eight,
			// inside it) and that color inserted into its vertex's list, or
			// left uncolored.
			p, leaf := withPendants(b, rng)
			perm = rng.Perm(p.N())
			g = relabel(p, perm)
			hostLists = make([][]int, g.N())
			colors = make([]int, g.N())
			mask := make([]bool, g.N())
			for v := range p.N() {
				colors[perm[v]] = Uncolored
				hostLists[perm[v]] = []int{0}
			}
			k := b.MaxDegree()
			for v, l := range leaf {
				list := lists[v]
				if l != -1 && rng.IntN(4) > 0 {
					c := k + 3 + rng.IntN(3)
					if rng.IntN(8) == 0 {
						c = rng.IntN(k)
					}
					colors[perm[l]] = c
					list = slices.Insert(slices.Clone(list), rng.IntN(len(list)+1), c)
				}
				hostLists[perm[v]] = list
				mask[perm[v]] = true
			}
			root = perm[rng.IntN(b.N())]
			check(name+" embedded", g, colors, hostLists, g.Ball(root, -1, mask))
			check(name+" embedded small", g, colors, hostLists, g.Ball(root, 1+rng.IntN(3), mask))
		}
	}
	t.Logf("in place %v (%d spanning, %d embedded one-block), %d fell back, %d errors",
		inPlace, spanning, embedded, fallback, errs)
	if inPlace["surplus"] < 270 || inPlace["b"] < 120 || inPlace["c"] < 60 || spanning < 150 || embedded < 150 || fallback < 65 || errs < 150 {
		t.Fatalf("in place %v (%d spanning, %d embedded one-block), %d fell back, %d errors: the mix no longer covers every path",
			inPlace, spanning, embedded, fallback, errs)
	}
}
