package seqcolor

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

func freshColors(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = Uncolored
	}
	return c
}

// degreeLists builds per-vertex lists of exactly size deg(v)+slack drawn from
// a palette, randomized.
func degreeLists(g *graph.Graph, slack, palette int, rng *rand.Rand) [][]int {
	lists := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		size := g.Degree(v) + slack
		if size < 1 {
			size = 1
		}
		if size > palette {
			size = palette
		}
		perm := rng.Perm(palette)
		lists[v] = perm[:size]
	}
	return lists
}

func TestVerify(t *testing.T) {
	g := gen.Cycle(4)
	good := []int{0, 1, 0, 1}
	if err := Verify(g, good, nil); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	bad := []int{0, 0, 1, 1}
	if err := Verify(g, bad, nil); err == nil {
		t.Error("monochromatic edge accepted")
	}
	uncol := []int{0, 1, Uncolored, 1}
	if err := Verify(g, uncol, nil); err == nil {
		t.Error("uncolored vertex accepted")
	}
	if err := VerifyPartial(g, uncol, nil); err != nil {
		t.Errorf("partial coloring rejected: %v", err)
	}
	lists := [][]int{{0}, {1}, {0}, {1}}
	if err := Verify(g, good, lists); err != nil {
		t.Errorf("list-compliant rejected: %v", err)
	}
	badLists := [][]int{{5}, {1}, {0}, {1}}
	if err := Verify(g, good, badLists); err == nil {
		t.Error("out-of-list color accepted")
	}
}

func TestUniformLists(t *testing.T) {
	lists := UniformLists(3, 4)
	if len(lists) != 3 || len(lists[0]) != 4 || lists[2][3] != 3 {
		t.Errorf("UniformLists wrong: %v", lists)
	}
}

func TestDegreeListColorSurplus(t *testing.T) {
	// A path with deg+1 lists: surplus everywhere, must color.
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.Path(15)
	lists := degreeLists(g, 1, 6, rng)
	colors := freshColors(g.N())
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatalf("surplus path failed: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeListColorEvenCycleTight(t *testing.T) {
	// Even cycle with identical tight 2-lists: colorable (alternate).
	g := gen.Cycle(8)
	lists := UniformLists(8, 2)
	colors := freshColors(8)
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatalf("even cycle failed: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeListColorOddCycleTightFails(t *testing.T) {
	// Odd cycle with identical 2-lists is the canonical infeasible case.
	g := gen.Cycle(7)
	lists := UniformLists(7, 2)
	colors := freshColors(7)
	err := DegreeListColor(g, colors, lists)
	if !errors.Is(err, ErrGallaiTight) {
		t.Fatalf("want ErrGallaiTight, got %v", err)
	}
	// Cross-check with the exact solver: genuinely infeasible.
	if _, ok := ListColorableBrute(g, lists); ok {
		t.Fatal("brute force says colorable — test premise wrong")
	}
}

func TestDegreeListColorCliqueTightFails(t *testing.T) {
	g := gen.Complete(4)
	lists := UniformLists(4, 3)
	colors := freshColors(4)
	err := DegreeListColor(g, colors, lists)
	if !errors.Is(err, ErrGallaiTight) {
		t.Fatalf("want ErrGallaiTight, got %v", err)
	}
	if _, ok := ListColorableBrute(g, lists); ok {
		t.Fatal("K4 with 3 identical colors should be infeasible")
	}
}

func TestDegreeListColorOddCycleDifferentLists(t *testing.T) {
	// Odd cycle with one deviating list is feasible and must succeed.
	g := gen.Cycle(5)
	lists := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {1, 2}}
	colors := freshColors(5)
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatalf("deviating odd cycle failed: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeListColorEvenCycleScrambledLists(t *testing.T) {
	// Identical 2-sets in different orders — the canonicalization case.
	g := gen.Cycle(6)
	lists := [][]int{{7, 3}, {3, 7}, {7, 3}, {3, 7}, {7, 3}, {3, 7}}
	colors := freshColors(6)
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatalf("scrambled even cycle failed: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeListColorBrooksCase(t *testing.T) {
	// 3-regular, 2-connected, not K4, not a cycle: e.g. the 3-cube and the
	// Petersen graph, with identical tight 3-lists — forces the Brooks path.
	cube := gen.CyclePower(8, 1) // C8 …
	b := graph.NewBuilder(8)
	for _, e := range cube.Edges() {
		b.AddEdgeOK(e[0], e[1])
	}
	for i := 0; i < 4; i++ {
		b.AddEdgeOK(i, i+4) // chords: creates the Möbius–Kantor-ish cubic graph
	}
	g := b.Graph()
	if g.MaxDegree() != 3 || g.MinDegree() != 3 {
		t.Fatal("test graph is not cubic")
	}
	lists := UniformLists(8, 3)
	colors := freshColors(8)
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatalf("Brooks case failed: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}

	pet := petersen()
	lists = UniformLists(10, 3)
	colors = freshColors(10)
	if err := DegreeListColor(pet, colors, lists); err != nil {
		t.Fatalf("Petersen Brooks case failed: %v", err)
	}
	if err := Verify(pet, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func petersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdgeOK(i, (i+1)%5)
		b.AddEdgeOK(5+i, 5+(i+2)%5)
		b.AddEdgeOK(i, 5+i)
	}
	return b.Graph()
}

func TestDegreeListColorGallaiTreeWithSurplus(t *testing.T) {
	// Gallai trees are fine as long as some vertex has surplus.
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 10; trial++ {
		g := gen.GallaiTree(5, rng)
		lists := degreeLists(g, 0, 12, rng)
		// grant one random vertex surplus
		v := rng.IntN(g.N())
		lists[v] = append(append([]int(nil), lists[v]...), 12)
		colors := freshColors(g.N())
		if err := DegreeListColor(g, colors, lists); err != nil {
			t.Fatalf("trial %d: Gallai tree with surplus failed: %v", trial, err)
		}
		if err := Verify(g, colors, lists); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDegreeListColorNonGallaiTightProperty(t *testing.T) {
	// THE theorem: any connected non-Gallai graph with tight degree lists is
	// colorable, whatever the lists. Random graphs + random tight lists.
	rng := rand.New(rand.NewPCG(3, 3))
	tested := 0
	for trial := 0; tested < 150 && trial < 3000; trial++ {
		n := 5 + rng.IntN(10)
		g := gen.GNP(n, 0.25+rng.Float64()*0.2, rng)
		if !g.IsConnected(nil) || g.IsGallaiForest(nil) {
			continue
		}
		tested++
		lists := degreeLists(g, 0, n+4, rng)
		colors := freshColors(n)
		if err := DegreeListColor(g, colors, lists); err != nil {
			t.Fatalf("trial %d: non-Gallai tight failed: %v (n=%d m=%d)", trial, err, n, g.M())
		}
		if err := Verify(g, colors, lists); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if tested < 100 {
		t.Fatalf("only %d usable graphs generated", tested)
	}
}

func TestDegreeListColorAgainstBrute(t *testing.T) {
	// Whenever DegreeListColor declares ErrGallaiTight on small Gallai
	// components with identical lists, brute force should often agree
	// infeasible; and whenever DegreeListColor succeeds, Verify must pass
	// (already covered) — here we check it never reports failure on a
	// feasible NON-Gallai instance.
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 400; trial++ {
		n := 4 + rng.IntN(5)
		g := gen.GNP(n, 0.4, rng)
		if !g.IsConnected(nil) {
			continue
		}
		lists := degreeLists(g, 0, n+6, rng)
		colors := freshColors(n)
		err := DegreeListColor(g, colors, lists)
		_, feasible := ListColorableBrute(g, lists)
		if err == nil {
			if verr := Verify(g, colors, lists); verr != nil {
				t.Fatalf("trial %d: invalid success: %v", trial, verr)
			}
			if !feasible {
				t.Fatalf("trial %d: colored an infeasible instance?!", trial)
			}
		} else {
			// Failure is only legitimate in the Gallai-tight case.
			if !errors.Is(err, ErrGallaiTight) {
				t.Fatalf("trial %d: unexpected error: %v", trial, err)
			}
			if !g.IsGallaiForest(nil) {
				t.Fatalf("trial %d: ErrGallaiTight on non-Gallai graph", trial)
			}
		}
	}
}

func TestDegreeListColorRespectsPrecoloring(t *testing.T) {
	// Precolor part of a path; the rest must extend without touching it.
	g := gen.Path(6)
	lists := UniformLists(6, 3)
	colors := freshColors(6)
	colors[0] = 2
	colors[3] = 1
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatal(err)
	}
	if colors[0] != 2 || colors[3] != 1 {
		t.Error("precoloring modified")
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeListColorDisconnected(t *testing.T) {
	g := gen.Disjoint(gen.Cycle(4), gen.Cycle(6))
	lists := UniformLists(10, 2)
	colors := freshColors(10)
	if err := DegreeListColor(g, colors, lists); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestSparseListColorPlanarStyle(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	g := gen.Apollonian(60, rng)
	lists := make([][]int, g.N())
	for v := range lists {
		perm := rng.Perm(12)
		lists[v] = perm[:6]
	}
	colors, err := SparseListColor(g, 6, lists)
	if err != nil {
		t.Fatalf("planar 6-list: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestSparseListColorRegular(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	g, err := gen.RandomRegular(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]int, g.N())
	for v := range lists {
		perm := rng.Perm(9)
		lists[v] = perm[:4]
	}
	colors, err := SparseListColor(g, 4, lists)
	if err != nil {
		t.Fatalf("4-regular 4-list: %v", err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
}

func TestSparseListColorFindsClique(t *testing.T) {
	g := gen.Complete(5) // K5: d=4 regular, IS K_{d+1}
	lists := UniformLists(5, 4)
	_, err := SparseListColor(g, 4, lists)
	var ce *CliqueError
	if !errors.As(err, &ce) {
		t.Fatalf("want CliqueError, got %v", err)
	}
	if len(ce.Clique) != 5 {
		t.Errorf("clique size %d, want 5", len(ce.Clique))
	}
}

func TestSparseListColorKPlus1CliqueWithTail(t *testing.T) {
	// K5 with a pendant path: the peel removes the path, exposing K5.
	b := graph.NewBuilder(8)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdgeOK(i, j)
		}
	}
	b.AddEdgeOK(4, 5)
	b.AddEdgeOK(5, 6)
	b.AddEdgeOK(6, 7)
	g := b.Graph()
	_, err := SparseListColor(g, 4, UniformLists(8, 4))
	var ce *CliqueError
	if !errors.As(err, &ce) {
		t.Fatalf("want CliqueError, got %v", err)
	}
}

func TestSparseListColorRejectsSmallD(t *testing.T) {
	if _, err := SparseListColor(gen.Path(4), 2, UniformLists(4, 2)); err == nil {
		t.Error("d=2 accepted")
	}
	short := [][]int{{0}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	if _, err := SparseListColor(gen.Path(4), 3, short); err == nil {
		t.Error("short list accepted")
	}
}

func TestListColorableBrute(t *testing.T) {
	g := gen.Cycle(5)
	if _, ok := ListColorableBrute(g, UniformLists(5, 2)); ok {
		t.Error("C5 2-colorable?!")
	}
	colors, ok := ListColorableBrute(g, UniformLists(5, 3))
	if !ok {
		t.Fatal("C5 should be 3-colorable")
	}
	if err := Verify(g, colors, UniformLists(5, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyInOrder(t *testing.T) {
	g := gen.Path(4)
	colors := freshColors(4)
	lists := UniformLists(4, 2)
	if err := GreedyInOrder(g, colors, lists, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, colors, lists); err != nil {
		t.Fatal(err)
	}
	// stuck case: middle vertex with both neighbors colored differently
	colors = []int{0, Uncolored, 1, Uncolored}
	oneColor := [][]int{{0}, {0}, {1}, {1}}
	if err := GreedyInOrder(g, colors, oneColor, []int{1}); err == nil {
		t.Error("expected stuck greedy")
	}
}

// naiveFree is the reference palette scan: the colors of list, in list
// order, that no colored neighbor of v uses, one neighbor pass per color.
func naiveFree(g *graph.Graph, colors []int, list []int, v int) (free []int, uncDeg int) {
	for _, w := range g.Neighbors(v) {
		if colors[w] == Uncolored {
			uncDeg++
		}
	}
	for _, c := range list {
		used := false
		for _, w := range g.Neighbors(v) {
			used = used || (colors[w] != Uncolored && colors[w] == c)
		}
		if !used {
			free = append(free, c)
		}
	}
	return free, uncDeg
}

// TestPaletteScanMatchesNaive checks first-fit, the effective list and
// (effective size, uncolored degree) against naiveFree, on both sides of
// colorScanCap: bitset lists, lists with repeated colors, and lists mixing
// small and huge colors (the per-color fallback), over partial colorings
// whose colors may also lie past every list's width.
func TestPaletteScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	huge := func(c int) int { return colorScanCap + c }
	drawLists := []struct {
		name string
		draw func() []int
	}{
		{"bitset", func() []int { return rng.Perm(12)[:5] }},
		{"repeated", func() []int {
			a, b := rng.IntN(6), rng.IntN(6)
			return []int{a, b, a, rng.IntN(6), b, b}
		}},
		{"mixed", func() []int {
			l := rng.Perm(8)[:5]
			l[rng.IntN(5)] = huge(rng.IntN(3))
			return l
		}},
		{"huge", func() []int { return []int{huge(2), huge(0), huge(2), huge(1)} }},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(60, 0.15, rng)},
		{"apollonian", gen.Apollonian(50, rng)},
		{"grid", gen.Grid(6, 7)},
	}
	palette := []int{0, 1, 2, 3, 4, 5, 7, 11, 20, huge(0), huge(1), huge(2)}
	for _, gc := range graphs {
		g, gname := gc.g, gc.name
		for _, lc := range drawLists {
			lname, draw := lc.name, lc.draw
			for _, colored := range []float64{0, 0.4, 0.9} {
				n := g.N()
				lists := make([][]int, n)
				colors := freshColors(n)
				for v := range lists {
					lists[v] = draw()
					if rng.Float64() < colored {
						colors[v] = palette[rng.IntN(len(palette))]
					}
				}
				verts := make([]int, n)
				for v := range verts {
					verts[v] = v
				}
				eff := EffectiveLists(g, colors, lists, verts)
				b := graph.AcquireBitset(0)
				for v := 0; v < n; v++ {
					want, wantUnc := naiveFree(g, colors, lists[v], v)
					if !slices.Equal(eff[v], want) {
						t.Fatalf("%s/%s/%.1f: vertex %d effective list %v, want %v", gname, lname, colored, v, eff[v], want)
					}
					size := 0
					unc := scanFree(g, colors, lists[v], v, b, func(int) bool { size++; return true })
					if size != len(want) || unc != wantUnc {
						t.Fatalf("%s/%s/%.1f: vertex %d stats (%d,%d), want (%d,%d)", gname, lname, colored, v, size, unc, len(want), wantUnc)
					}
					if colors[v] != Uncolored {
						continue
					}
					one := slices.Clone(colors)
					err := GreedyInOrder(g, one, lists, []int{v})
					if len(want) == 0 {
						if err == nil {
							t.Fatalf("%s/%s/%.1f: vertex %d colored %d with no free color", gname, lname, colored, v, one[v])
						}
					} else if err != nil || one[v] != want[0] {
						t.Fatalf("%s/%s/%.1f: vertex %d first-fit %d (%v), want %d", gname, lname, colored, v, one[v], err, want[0])
					}
				}
				graph.ReleaseBitset(b)
			}
		}
	}
}

func TestNumColors(t *testing.T) {
	if n := NumColors([]int{0, 1, 1, 2, Uncolored}); n != 3 {
		t.Errorf("NumColors=%d, want 3", n)
	}
}
