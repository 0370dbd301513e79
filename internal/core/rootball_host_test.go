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

// relabel returns g with each vertex v renamed perm[v], so that BFS order
// and vertex order part ways.
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	pairs := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]int{perm[e[0]], perm[e[1]]})
	}
	h, err := graph.NewFromPairs(g.N(), pairs)
	if err != nil {
		panic(err)
	}
	return h
}

// hostBallGraphs returns relabeled hosts of several shapes: planar
// triangulations, a grid, a sparse random graph and 3-regular graphs.
func hostBallGraphs(rng *rand.Rand) []*graph.Graph {
	r3, err := gen.RandomRegular(60, 3, rng)
	if err != nil {
		panic(err)
	}
	gs := []*graph.Graph{gen.Apollonian(500, rng), gen.Grid(14, 14), gen.GNP(300, 4.0/300, rng), r3}
	for i, g := range gs {
		gs[i] = relabel(g, rng.Perm(g.N()))
	}
	return gs
}

// hostBallList draws a list around the degree deg, from deg to deg+2
// colors of a palette of deg+4 and one in 16 a color short, so that balls
// come out with a surplus, tight, or short of colors. One list in 8
// repeats a color, and one in 80 holds a negative color or one beyond the
// bitset scan.
func hostBallList(rng *rand.Rand, deg int) []int {
	size := deg + rng.IntN(3)
	if rng.IntN(16) == 0 {
		size = deg - 1
	}
	list := rng.Perm(deg + 4)[:max(1, size)]
	switch rng.IntN(80) {
	case 0:
		list[rng.IntN(len(list))] = -3
	case 1:
		list[rng.IntN(len(list))] = 1 << 21
	case 2, 3, 4, 5, 6, 7, 8, 9, 10, 11:
		list = append(list, list[rng.IntN(len(list))])
	}
	return list
}

// hostPathExpected reports whether the induced copy of ball takes the
// surplus path: the copy is connected, every list fits the bitset scan
// unless the ball spans g, every effective list covers its vertex's degree
// in the copy and at least one exceeds it. ColorBall should color such a
// ball in place unless the greedy gets stuck, which the fresh path then
// reports.
func hostPathExpected(g *graph.Graph, colors []int, lists [][]int, ball []int) bool {
	sub, orig, err := g.Induced(ball)
	if err != nil || len(sub.Components(nil)) != 1 {
		return false
	}
	eff := new(seqcolor.Workspace).EffectiveLists(g, colors, lists, orig)
	surplus := false
	for i, v := range orig {
		far := len(ball) < g.N() && slices.ContainsFunc(lists[v], func(c int) bool { return c < 0 || c >= 1<<20 })
		if far || len(eff[i]) < sub.Degree(i) {
			return false
		}
		surplus = surplus || len(eff[i]) > sub.Degree(i)
	}
	return surplus
}

// appendFarBall appends to ball a second ball, of radius 0 to 2, that
// neither meets nor touches it, so the list is disconnected: the union of
// two carved balls. It returns ball unchanged when every vertex of g is in
// ball or next to it.
func appendFarBall(rng *rand.Rand, g *graph.Graph, ball []int) []int {
	free := make([]bool, g.N())
	for v := range free {
		free[v] = true
	}
	for _, v := range ball {
		free[v] = false
		for _, u := range g.Neighbors(v) {
			free[u] = false
		}
	}
	var roots []int
	for v, ok := range free {
		if ok {
			roots = append(roots, v)
		}
	}
	if len(roots) == 0 {
		return ball
	}
	return append(ball, g.Ball(roots[rng.IntN(len(roots))], rng.IntN(3), free)...)
}

// TestRootBallHostMatchesFresh holds the in-place surplus path to the
// fresh induced-copy path (colorBallFresh): for balls carved by AppendBall
// on relabeled hosts, under outside colorings that leave about half the
// outside vertices uncolored, with repeated, negative and too-large list
// colors, tight balls and the union of two far-apart balls, colorBallTheorem11
// must give the same colors and the same error, and ColorBall must
// take exactly the balls whose induced copy is connected, has a surplus
// vertex and passes the list checks.
func TestRootBallHostMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	var ws ballWorkspace
	var tr graph.Traversal
	var host, fallback, errs, unsorted, split int
	for hi, g := range hostBallGraphs(rng) {
		lists := make([][]int, g.N())
		for v := range lists {
			lists[v] = hostBallList(rng, g.Degree(v))
		}
		if hi == 3 {
			// The 3-regular host with one tight palette: balls spanning it
			// are Brooks blocks, and must fall back when not flagged as
			// one block.
			lists = seqcolor.UniformLists(g.N(), 3)
		}
		mask := make([]bool, g.N())
		for trial := range 120 {
			for v := range mask {
				mask[v] = trial%4 == 0 || rng.IntN(5) > 0
			}
			root := rng.IntN(g.N())
			mask[root] = true
			radius := 1 + rng.IntN(5)
			if hi == 3 && trial%2 == 0 {
				radius = -1
				clear(mask)
			}
			var m []bool
			if radius >= 0 {
				m = mask
			}
			ball := g.Ball(root, radius, m)
			if trial%6 == 5 {
				n := len(ball)
				if ball = appendFarBall(rng, g, ball); len(ball) > n {
					split++
				}
			}
			if !slices.IsSorted(ball) {
				unsorted++
			}
			colors := make([]int, g.N())
			for v := range colors {
				colors[v] = Uncolored
				if rng.IntN(2) == 0 {
					colors[v] = rng.IntN(8)
				}
			}
			for _, v := range ball {
				colors[v] = Uncolored
			}
			name := fmt.Sprintf("host %d trial %d (%d vertices)", hi, trial, len(ball))

			want := slices.Clone(colors)
			wantErr := colorBallFresh(g, want, lists, ball)
			got := slices.Clone(colors)
			gotErr := colorBallTheorem11(g, &tr, got, lists, ball, false, &ws)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, fresh path %v", name, gotErr, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: colors differ from the fresh path", name)
			}
			got = slices.Clone(colors)
			done := ws.seq.ColorBall(g, got, lists, ball, false)
			if expect := wantErr == nil && hostPathExpected(g, colors, lists, ball); done != expect {
				t.Fatalf("%s: ColorBall took the ball: %v, want %v", name, done, expect)
			}
			switch {
			case done:
				host++
			case wantErr != nil:
				errs++
			default:
				fallback++
			}
			if !done && !slices.Equal(got, colors) {
				t.Fatalf("%s: ColorBall fell back but changed colors", name)
			}
		}
	}
	t.Logf("%d balls in place, %d fell back, %d errors, %d not in vertex order, %d in two parts",
		host, fallback, errs, unsorted, split)
	if host < 100 || fallback < 20 || errs < 20 || unsorted < 100 || split < 40 {
		t.Fatalf("%d balls in place, %d fell back, %d errors, %d not in vertex order, %d in two parts: the mix no longer covers every path",
			host, fallback, errs, unsorted, split)
	}
}

// TestRootBallCarvedInInducedBFSOrder checks the order ColorBall
// requires of its ball: AppendBall returns a ball in the BFS order, from
// ball[0], of the subgraph it induces with vertex i being ball[i] (rows
// in ascending ball index), on relabeled hosts and random masks.
func TestRootBallCarvedInInducedBFSOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 2))
	for hi, g := range hostBallGraphs(rng) {
		mask := make([]bool, g.N())
		for trial := range 100 {
			for v := range mask {
				mask[v] = rng.IntN(10) < 3+trial%7
			}
			root := rng.IntN(g.N())
			mask[root] = true
			radius := rng.IntN(7) - 1
			ball := g.Ball(root, radius, mask)
			sub, _, err := g.Induced(ball)
			if err != nil {
				t.Fatal(err)
			}
			order := sub.BFS([]int{0}, nil, -1).Order
			for i, v := range order {
				if v != i {
					t.Fatalf("host %d trial %d (radius %d, %d vertices): induced BFS visits ball index %d at step %d",
						hi, trial, radius, len(ball), v, i)
				}
			}
			if len(order) != len(ball) {
				t.Fatalf("host %d trial %d: induced BFS reaches %d of %d ball vertices", hi, trial, len(order), len(ball))
			}
		}
	}
}
