package seqcolor

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// refScanFree is scanFree as it was before neighbor colors below 64 moved
// into a local word: every color of a listWidth-accepted list is marked in
// and tested on the epoch-stamped bitset. It is the oracle for the word
// palette.
func refScanFree(g *graph.Graph, colors []int, list []int, v int, b *graph.Bitset, keep func(c int) bool) (uncDeg int) {
	width := listWidth(list)
	if width >= 0 {
		b.Reset(width)
	}
	nbrs := g.Neighbors(v)
	for _, w := range nbrs {
		if c := colors[int(w)]; c == Uncolored {
			uncDeg++
		} else if c >= 0 && c < width {
			b.Set(c)
		}
	}
	for _, c := range list {
		used := false
		if width >= 0 {
			used = b.Test(c)
		} else {
			for _, w := range nbrs {
				if colors[int(w)] == c {
					used = true
					break
				}
			}
		}
		if !used && !keep(c) {
			break
		}
	}
	return uncDeg
}

// refGreedyInOrder is GreedyInOrder on refScanFree.
func refGreedyInOrder(g *graph.Graph, colors []int, lists [][]int, order []int) error {
	var b graph.Bitset
	for _, v := range order {
		if colors[v] != Uncolored {
			continue
		}
		free := Uncolored
		refScanFree(g, colors, lists[v], v, &b, func(c int) bool {
			free = c
			return false
		})
		if free == Uncolored {
			return fmt.Errorf("seqcolor: greedy stuck at vertex %d", v)
		}
		colors[v] = free
	}
	return nil
}

// refEffectiveLists is EffectiveLists on refScanFree, one fresh slice per
// vertex.
func refEffectiveLists(g *graph.Graph, colors []int, lists [][]int, verts []int) [][]int {
	var b graph.Bitset
	eff := make([][]int, len(verts))
	for i, v := range verts {
		eff[i] = []int{}
		refScanFree(g, colors, lists[v], v, &b, func(c int) bool {
			eff[i] = append(eff[i], c)
			return true
		})
	}
	return eff
}

// refBallSlack is ballSlack as it was, all on the bitset, over the ball
// indices at.
func refBallSlack(g *graph.Graph, at []int32, colors []int, list []int, v int) (free, deg int, ok bool) {
	width := listWidth(list)
	if width < 0 {
		return 0, 0, false
	}
	b := graph.NewBitset(width)
	for _, u := range g.Neighbors(v) {
		if at[u] != 0 {
			deg++
		} else if c := colors[u]; c >= 0 && c < width {
			b.Set(c)
		}
	}
	for _, c := range list {
		if !b.Test(c) {
			free++
		}
	}
	return free, deg, true
}

// boundaryColor draws a color of a palette of p colors, half the time from
// the few around 63 and 64 and, rarely, one no bitset takes (huge).
func boundaryColor(p int, rng *rand.Rand) int {
	switch r := rng.IntN(40); {
	case r == 0:
		return colorScanCap + rng.IntN(3)
	case r < 20 && p > 60:
		return min(p-1, 60+rng.IntN(8))
	default:
		return rng.IntN(p)
	}
}

// wideInstance is a random graph with half its vertices colored and a list
// per vertex, colors and lists drawn from one palette of up to 200 colors
// by boundaryColor; a list repeats a color now and then, and 1 in 20 holds
// a negative color, which listWidth rejects.
func wideInstance(rng *rand.Rand) (g *graph.Graph, colors []int, lists [][]int) {
	n := 10 + rng.IntN(120)
	g = gen.GNP(n, (4+40*rng.Float64())/float64(n), rng)
	p := 1 + rng.IntN(200)
	colors = make([]int, n)
	lists = make([][]int, n)
	for v := range n {
		colors[v] = Uncolored
		if rng.IntN(2) == 0 {
			colors[v] = boundaryColor(p, rng)
		}
		list := make([]int, 1+rng.IntN(g.Degree(v)+4))
		for i := range list {
			list[i] = boundaryColor(p, rng)
		}
		if rng.IntN(20) == 0 {
			list[rng.IntN(len(list))] = -2
		}
		lists[v] = list
	}
	return g, colors, lists
}

// TestWordPaletteMatchesBitset holds the one-word palette kernels to the
// bitset kernels they replaced on palettes of up to 200 colors whose
// colors straddle 63 and 64: scanFree's colors and uncolored degree (with
// keep stopping at a random color), GreedyInOrder's colors and errors,
// EffectiveLists and ballSlack.
func TestWordPaletteMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	var w Workspace
	var b graph.Bitset
	wide := 0
	for trial := range 400 {
		g, colors, lists := wideInstance(rng)
		n := g.N()
		for v := range n {
			stop := rng.IntN(len(lists[v]) + 1)
			var got, want []int
			gotDeg := scanFree(g, colors, lists[v], v, &b, func(c int) bool {
				got = append(got, c)
				return len(got) != stop
			})
			wantDeg := refScanFree(g, colors, lists[v], v, graph.NewBitset(0), func(c int) bool {
				want = append(want, c)
				return len(want) != stop
			})
			if gotDeg != wantDeg || !slices.Equal(got, want) {
				t.Fatalf("trial %d vertex %d list %v: scanFree %v (uncolored degree %d), reference %v (%d)", trial, v, lists[v], got, gotDeg, want, wantDeg)
			}
			if slices.ContainsFunc(want, func(c int) bool { return c >= 64 }) {
				wide++
			}
		}
		order := rng.Perm(n)
		got, want := slices.Clone(colors), slices.Clone(colors)
		gotErr := w.GreedyInOrder(g, got, Given(lists), order)
		wantErr := refGreedyInOrder(g, want, lists, order)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("trial %d: GreedyInOrder %v, reference %v", trial, gotErr, wantErr)
		}
		verts := rng.Perm(n)[:rng.IntN(n+1)]
		if eff, ref := w.EffectiveLists(g, colors, Given(lists), verts), refEffectiveLists(g, colors, lists, verts); !slices.EqualFunc(eff, ref, slices.Equal) {
			t.Fatalf("trial %d: EffectiveLists %v, reference %v", trial, eff, ref)
		}
		var ball []int
		for v := range n {
			if colors[v] == Uncolored && rng.IntN(2) == 0 {
				ball = append(ball, v)
			}
		}
		if !w.indexBall(g, colors, ball) {
			t.Fatalf("trial %d: ball %v not indexed", trial, ball)
		}
		for v := range n {
			free, deg, ok := w.ballSlack(g, colors, lists[v], v)
			wantFree, wantDeg, wantOK := refBallSlack(g, w.at, colors, lists[v], v)
			if free != wantFree || deg != wantDeg || ok != wantOK {
				t.Fatalf("trial %d vertex %d list %v: ballSlack (%d, %d, %v), reference (%d, %d, %v)", trial, v, lists[v], free, deg, ok, wantFree, wantDeg, wantOK)
			}
		}
		w.unindexBall(ball)
	}
	if wide < 100 {
		t.Fatalf("only %d free lists reached a color ≥ 64; want ≥ 100", wide)
	}
}

// TestColorBallWordPaletteMatchesCopy colors balls whose outside neighbors
// hold colors around 63 and 64 in place (ColorBall) and through the
// induced copy, whose effective lists come from the bitset kernel, and
// requires the same colors whenever ColorBall colors the ball; when it
// declines, the ball must stay uncolored.
func TestColorBallWordPaletteMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	var w Workspace
	var tr graph.Traversal
	colored := 0
	for trial := range 300 {
		g, colors, lists := wideInstance(rng)
		uncolored := make([]bool, g.N())
		var roots []int
		for v, c := range colors {
			if uncolored[v] = c == Uncolored; uncolored[v] {
				roots = append(roots, v)
			}
		}
		if len(roots) == 0 {
			continue
		}
		ball := tr.Bind(g).AppendBall(nil, roots[rng.IntN(len(roots))], 1+rng.IntN(3), uncolored)
		// Lists of distinct colors, one to three longer than the degree,
		// so that most balls have a surplus vertex.
		p := 8 + rng.IntN(192)
		for v := range lists {
			size := g.Degree(v) + 1 + rng.IntN(3)
			list := make([]int, 0, size)
			for len(list) < size {
				if c := boundaryColor(p, rng); c < p && !slices.Contains(list, c) {
					list = append(list, c)
				} else if len(list) >= p {
					break
				}
			}
			lists[v] = list
		}
		got := slices.Clone(colors)
		if !w.ColorBall(g, got, Given(lists), ball, false) {
			if !slices.Equal(got, colors) {
				t.Fatalf("trial %d: ColorBall declined but changed colors", trial)
			}
			continue
		}
		colored++
		sub, orig, err := g.Induced(ball)
		if err != nil {
			t.Fatal(err)
		}
		subColors := make([]int, sub.N())
		for i := range subColors {
			subColors[i] = Uncolored
		}
		if err := DegreeListColor(sub, subColors, refEffectiveLists(g, colors, lists, orig)); err != nil {
			t.Fatalf("trial %d: ColorBall colored a ball the copy cannot: %v", trial, err)
		}
		want := slices.Clone(colors)
		for i, u := range orig {
			want[u] = subColors[i]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ColorBall colors differ from the copy's", trial)
		}
	}
	if colored < 50 {
		t.Fatalf("ColorBall colored only %d balls; want ≥ 50", colored)
	}
}

// refVerify is Verify as it was, comparing every edge from both ends.
func refVerify(g *graph.Graph, colors []int, lists [][]int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("seqcolor: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] == Uncolored {
			return fmt.Errorf("seqcolor: vertex %d uncolored", v)
		}
		if lists != nil && !slices.Contains(lists[v], colors[v]) {
			return fmt.Errorf("seqcolor: vertex %d color %d not in its list %v", v, colors[v], lists[v])
		}
		for _, w := range g.Neighbors(v) {
			if colors[int(w)] == colors[v] {
				return fmt.Errorf("seqcolor: edge (%d,%d) monochromatic in color %d", v, w, colors[v])
			}
		}
	}
	return nil
}

// refVerifyPartial is VerifyPartial as it was.
func refVerifyPartial(g *graph.Graph, colors []int, lists [][]int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("seqcolor: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] == Uncolored {
			continue
		}
		if lists != nil && !slices.Contains(lists[v], colors[v]) {
			return fmt.Errorf("seqcolor: vertex %d color %d not in its list", v, colors[v])
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && colors[int(w)] == colors[v] {
				return fmt.Errorf("seqcolor: edge (%d,%d) monochromatic", v, w)
			}
		}
	}
	return nil
}

// TestVerifyMatchesBothEnds holds Verify, which compares each edge from
// its lower end, and VerifyPartial to the versions that compared both
// ends, on proper colorings of cycles, grids, Apollonian and random graphs
// with up to three corruptions each: an uncolored vertex, a color outside
// the vertex's list, a monochromatic edge. The error strings must be
// equal, under no lists, under random lists and under the canonical lists
// (given once and as per-vertex copies).
func TestVerifyMatchesBothEnds(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 3))
	failed := map[string]int{}
	for trial := range 600 {
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = gen.Cycle(3 + rng.IntN(40))
		case 1:
			g = gen.Grid(2+rng.IntN(8), 2+rng.IntN(8))
		case 2:
			g = gen.Apollonian(4+rng.IntN(60), rng)
		default:
			n := 2 + rng.IntN(60)
			g = gen.GNP(n, 4/float64(n), rng)
		}
		n := g.N()
		k := g.MaxDegree() + 1
		colors := make([]int, n)
		for v := range colors {
			colors[v] = Uncolored
		}
		if err := GreedyInOrder(g, colors, Canonical(k), rng.Perm(n)); err != nil {
			t.Fatal(err)
		}
		lists := make([][]int, n)
		for v := range lists {
			lists[v] = append(rng.Perm(k + 2)[:1+rng.IntN(k)], colors[v])
		}
		for range rng.IntN(4) {
			v := rng.IntN(n)
			switch rng.IntN(3) {
			case 0:
				colors[v] = Uncolored
			case 1:
				colors[v] = k + 5
			default:
				if nbrs := g.Neighbors(v); len(nbrs) > 0 {
					colors[v] = colors[nbrs[rng.IntN(len(nbrs))]]
				}
			}
		}
		uniform := UniformLists(n, k)
		for _, c := range []struct {
			name string
			got  Lists
			want [][]int
		}{
			{"none", Lists{}, nil},
			{"random", Given(lists), lists},
			{"canonical", Canonical(k), uniform},
			{"uniform", Given(uniform), uniform},
		} {
			got, want := Verify(g, colors, c.got), refVerify(g, colors, c.want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d, %s lists: Verify %v, reference %v", trial, c.name, got, want)
			}
			if want != nil {
				failed[c.name]++
			}
			if got, want := VerifyPartial(g, colors, c.got), refVerifyPartial(g, colors, c.want); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d, %s lists: VerifyPartial %v, reference %v", trial, c.name, got, want)
			}
		}
	}
	for _, name := range []string{"none", "random", "canonical"} {
		if failed[name] < 100 {
			t.Fatalf("only %d colorings failed under %s lists; want ≥ 100", failed[name], name)
		}
	}
}
