package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/ruling"
	"distcolor/internal/seqcolor"
)

// colorBallFresh is the per-ball path colorBallTheorem11 replaced: a fresh
// induced graph, fresh effective lists, fresh colors and a fresh
// DegreeListColor for every ball. It is the oracle for the reused
// workspace.
func colorBallFresh(g *graph.Graph, colors []int, lists [][]int, ball []int) error {
	sub, orig, err := g.Induced(ball)
	if err != nil {
		return err
	}
	var w seqcolor.Workspace
	subLists := w.EffectiveLists(g, colors, seqcolor.Given(lists), orig)
	subColors := make([]int, sub.N())
	for i := range subColors {
		subColors[i] = Uncolored
	}
	if err := seqcolor.DegreeListColor(sub, subColors, subLists); err != nil {
		return fmt.Errorf("Theorem 1.1 on the ball failed (broken happiness invariant?): %w", err)
	}
	for i, u := range orig {
		colors[u] = subColors[i]
	}
	return nil
}

// ballHost is a disjoint union of parts, each with its own list rule, and
// the offset of every part in the union.
type ballHost struct {
	g     *graph.Graph
	lists [][]int
	off   []int
}

// newBallHost unites the parts; lists(i, v, deg) gives part i's vertex v
// (with host degree deg) its list.
func newBallHost(parts []*graph.Graph, lists func(part, v, deg int) []int) *ballHost {
	h := &ballHost{g: gen.Disjoint(parts...)}
	for i, p := range parts {
		base := 0
		if i > 0 {
			base = h.off[i-1] + parts[i-1].N()
		}
		h.off = append(h.off, base)
		for v := range p.N() {
			h.lists = append(h.lists, lists(i, v, p.Degree(v)))
		}
	}
	return h
}

// part returns every vertex of part i, in BFS order from its first vertex
// (so a connected part is a ball of radius ∞).
func (h *ballHost) part(i int) []int {
	return h.g.Ball(h.off[i], -1, nil)
}

// ballStep is one root ball of the sequence: the vertices to recolor, in
// the order extend would carve them.
type ballStep struct {
	name string
	host *ballHost
	ball []int
}

// surplusList draws deg+1 colors from a palette of 2·deg+4: every vertex of
// any ball keeps a surplus after its outside neighbors are filtered out.
func surplusList(rng *rand.Rand, deg int) []int {
	return rng.Perm(2*deg + 4)[:deg+1]
}

// ballSequence builds the differential sequence over two hosts: surplus
// balls large → small → large, Brooks and mixed-list tight balls, an even
// cycle, tight balls whose bad block is proper (pendant triangles), a
// Gallai-tree ball the fallback colors, balls with two components, the
// same ball again under new outside colors, and two balls Theorem 1.1
// rejects (an odd cycle with one common 2-list, and lists shorter than the
// degree).
func ballSequence(rng *rand.Rand) []ballStep {
	r1, err := gen.RandomRegular(200, 3, rng)
	if err != nil {
		panic(err)
	}
	r2, err := gen.RandomRegular(120, 3, rng)
	if err != nil {
		panic(err)
	}
	uniform3 := []int{0, 1, 2}
	// Host 1: apollonian (surplus), 3-regular (Brooks), even cycle with
	// one palette in two orders, cycle with pendant triangles (tight,
	// lists {0..deg-1}).
	h1 := newBallHost([]*graph.Graph{gen.Apollonian(400, rng), r1, gen.Cycle(10), gen.WithPendantCliques(gen.Cycle(6), 3)},
		func(part, v, deg int) []int {
			switch part {
			case 0:
				return surplusList(rng, deg)
			case 1:
				return uniform3
			case 2:
				if v%3 == 0 {
					return []int{7, 4}
				}
				return []int{4, 7}
			default:
				list := make([]int, deg)
				for c := range list {
					list[c] = c
				}
				return list
			}
		})
	// Host 2: grid (surplus), 3-regular with differing tight lists, odd
	// cycle with one common 2-list, a path whose lists are too short, an
	// odd cycle with differing tight lists (the Gallai-tree fallback), and
	// pendant triangles whose colors leave the cycle a surplus.
	h2 := newBallHost([]*graph.Graph{gen.Grid(20, 20), r2, gen.Cycle(7), gen.Path(4), gen.Cycle(5), gen.WithPendantCliques(gen.Cycle(6), 3)},
		func(part, v, deg int) []int {
			switch {
			case part == 0:
				return surplusList(rng, deg)
			case part == 1:
				return rng.Perm(5)[:3]
			case part == 2:
				return []int{1, 3}
			case part == 3:
				return []int{5}
			case part == 4 && v == 0:
				return []int{1, 4}
			case part == 4:
				return []int{1, 3}
			case v < 6: // the pendant graph's cycle
				return []int{0, 1, 2, 3}
			default:
				return []int{10, 11}
			}
		})
	apo := h1.off[0]
	grid := h2.off[0]
	bigApo := h1.g.Ball(apo, 3, nil)
	smallApo := h1.g.Ball(apo+50, 1, nil)
	// A part-0 ball plus a tight part: the walk meets the surplus component
	// first (lower sub-graph indices), then the tight one.
	twoComp := append(h1.g.Ball(apo+90, 1, nil), h1.part(3)...)
	twoTight := append(h1.part(2), h1.part(1)...)
	return []ballStep{
		{"h1 surplus large", h1, bigApo},
		{"h1 surplus small", h1, smallApo},
		{"h1 brooks", h1, h1.part(1)},
		{"h1 even cycle", h1, h1.part(2)},
		{"h1 surplus + pendant tight", h1, twoComp},
		{"h1 even cycle + brooks", h1, twoTight},
		{"h1 pendant tight", h1, h1.part(3)},
		{"h2 surplus large", h2, h2.g.Ball(grid+210, 6, nil)},
		{"h2 mixed tight", h2, h2.part(1)},
		{"h2 odd cycle error", h2, h2.part(2)},
		{"h2 odd cycle fallback", h2, h2.part(4)},
		{"h2 pendant surplus block", h2, h2.part(5)},
		{"h2 surplus small", h2, h2.g.Ball(grid+3, 1, nil)},
		{"h2 surplus small again", h2, h2.g.Ball(grid+3, 1, nil)},
		{"h2 short lists error", h2, h2.part(3)},
		{"h2 surplus large again", h2, h2.g.Ball(grid+210, 6, nil)},
		{"h1 surplus large again", h1, bigApo},
		{"h1 brooks again", h1, h1.part(1)},
		{"h1 surplus small again", h1, smallApo},
	}
}

// recolorOutside gives every vertex outside the ball a random color from
// [0, 12) or leaves it uncolored, so consecutive balls (and the same ball
// twice) see different effective lists.
func recolorOutside(rng *rand.Rand, colors []int, ball []int) {
	in := make(map[int]bool, len(ball))
	for _, v := range ball {
		in[v] = true
	}
	for v := range colors {
		if !in[v] {
			colors[v] = rng.IntN(13) - 1 // -1 is Uncolored
		}
	}
}

// TestRootBallReuseMatchesFresh recolors a sequence of balls through one
// workspace and through the fresh per-ball path, and checks that both give
// the same colors and the same error at every step. The sequence crosses
// two graphs, grows and shrinks the workspace, and reaches every Theorem
// 1.1 branch a ball can take (surplus, Brooks, differing tight lists, even
// cycle, peeled blocks, the Gallai-tree fallback) plus two errors.
func TestRootBallReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	var ws ballWorkspace
	var tr graph.Traversal
	errs := 0
	for i, st := range ballSequence(rng) {
		colors := make([]int, st.host.g.N())
		recolorOutside(rng, colors, st.ball)
		for _, v := range st.ball {
			colors[v] = Uncolored
		}
		want := slices.Clone(colors)
		wantErr := colorBallFresh(st.host.g, want, st.host.lists, st.ball)
		got := slices.Clone(colors)
		gotErr := colorBallTheorem11(st.host.g, &tr, got, seqcolor.Given(st.host.lists), st.ball, false, &ws)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d (%s): error %v, fresh path %v", i, st.name, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): colors differ from the fresh path", i, st.name)
		}
		if wantErr != nil {
			errs++
			continue
		}
		// Both paths agree; check they agree on a proper list coloring of
		// the ball.
		for _, v := range st.ball {
			if !slices.Contains(st.host.lists[v], got[v]) {
				t.Fatalf("step %d (%s): vertex %d color %d not in its list", i, st.name, v, got[v])
			}
			for _, w := range st.host.g.Neighbors(v) {
				if got[w] == got[v] {
					t.Fatalf("step %d (%s): edge (%d,%d) monochromatic", i, st.name, v, w)
				}
			}
		}
	}
	if errs != 2 {
		t.Fatalf("%d steps failed, want the 2 error steps", errs)
	}
}

// allocBytes returns the bytes a warm call of fn allocates, as the
// TotalAlloc delta of a second call after a first, which finds the scratch
// the first one grew.
func allocBytes(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRootBallAllocatesPerBall checks that once the workspace is warm, the
// extension's root-ball step — carve the ball off the root's search,
// uncolor it, recolor it — allocates nothing. Both balls are colored in
// place on the graph, on the workspace's ball indices, neighbors and
// order: a 3-vertex surplus ball in an n=1e5 graph, and a ball spanning a
// 3-regular graph at n=1e4 under one tight palette, which takes the
// Brooks fast path.
func TestRootBallAllocatesPerBall(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2))
	var ws ballWorkspace
	var tr graph.Traversal
	// recolor carves the ball of radius around v in mask, checks that a warm
	// recoloring of it allocates nothing, and that ColorBall takes it.
	recolor := func(name string, g *graph.Graph, lists [][]int, v, radius int, mask []bool, oneBlock bool, size int) {
		colors := make([]int, g.N())
		for u := range colors {
			colors[u] = Uncolored
		}
		var blocks []int
		if oneBlock {
			blocks = []int{slices.Min(g.Ball(v, radius, mask))}
		}
		var err error
		call := func() {
			tr.Bind(g).Run([]int{v}, mask, -1)
			err = extendRootBalls(context.Background(), g, &tr, colors, seqcolor.Given(lists), blocks, radius, &ws)
		}
		// A reading can catch a runtime allocation that is not the call's
		// (another P's tiny block, a new M); those do not repeat, so the
		// least of up to three readings is taken.
		got := allocBytes(call)
		for range 2 {
			if got == 0 {
				break
			}
			got = min(got, allocBytes(call))
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ws.ball) != size {
			t.Fatalf("%s: ball has %d vertices, want %d", name, len(ws.ball), size)
		}
		for _, u := range ws.ball {
			colors[u] = Uncolored
		}
		if !ws.seq.ColorBall(g, colors, seqcolor.Given(lists), ws.ball, oneBlock) {
			t.Fatalf("%s: the ball was not colored in place", name)
		}
		if got != 0 {
			t.Fatalf("%s: recoloring allocated %d bytes, want 0", name, got)
		}
	}

	g := gen.Apollonian(100000, rng)
	// A triangle: an Apollonian vertex and two adjacent neighbors.
	v := 1000
	nbrs := g.Neighbors(v)
	var tri []int
	for _, a := range nbrs {
		for _, b := range nbrs {
			if a < b && g.HasEdge(int(a), int(b)) && tri == nil {
				tri = []int{v, int(a), int(b)}
			}
		}
	}
	mask := make([]bool, g.N())
	for _, u := range tri {
		mask[u] = true
	}
	recolor("surplus triangle", g, seqcolor.UniformLists(g.N(), 6), v, 5, mask, false, 3)

	r3, err := gen.RandomRegular(10000, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !oneBadBlock(r3) {
		t.Fatal("the 3-regular graph is not one bad block")
	}
	recolor("spanning 3-regular", r3, seqcolor.UniformLists(r3.N(), 3), 0, -1, nil, true, r3.N())
}

// cancelAfter is a context whose Err reports context.Canceled from its
// calls-th call on: a cancellation that lands at a known check.
type cancelAfter struct {
	context.Context
	calls int
}

func (c *cancelAfter) Err() error {
	if c.calls--; c.calls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestRootBallsHonorCancel recolors the root balls of 200 disjoint
// triangles, one root each, under a context cancelled at its first, second
// or no Err call: extendRootBalls checks ctx before each batch of
// ballsPerCheck balls, so it colors no ball, one batch or every ball.
func TestRootBallsHonorCancel(t *testing.T) {
	const triangles = 200
	b := graph.NewBuilder(3 * triangles)
	roots := make([]int, triangles)
	for i := range roots {
		roots[i] = 3 * i
		b.AddEdgeOK(3*i, 3*i+1)
		b.AddEdgeOK(3*i+1, 3*i+2)
		b.AddEdgeOK(3*i, 3*i+2)
	}
	g := b.Graph()
	lists := seqcolor.UniformLists(g.N(), 3)
	for _, tc := range []struct{ calls, balls int }{{1, 0}, {2, ballsPerCheck}, {triangles, triangles}} {
		var ws ballWorkspace
		var tr graph.Traversal
		colors := make([]int, g.N())
		for v := range colors {
			colors[v] = Uncolored
		}
		tr.Bind(g).Run(roots, nil, -1)
		err := extendRootBalls(&cancelAfter{context.Background(), tc.calls}, g, &tr, colors, seqcolor.Given(lists), nil, 1, &ws)
		colored := 0
		for _, c := range colors {
			if c != Uncolored {
				colored++
			}
		}
		if wantErr := tc.balls < triangles; colored != 3*tc.balls || errors.Is(err, context.Canceled) != wantErr {
			t.Fatalf("cancelled at Err call %d: %v after coloring %d vertices, want %d balls colored (error %v)", tc.calls, err, colored, tc.balls, wantErr)
		}
	}
}

// rootBallCase is one benchmark input: a colored graph and the root balls
// extend recolors on it.
type rootBallCase struct {
	name     string
	g        *graph.Graph
	lists    seqcolor.Lists
	colors   []int
	richMask []bool
	blocks   []int
	roots    []int
	radius   int
}

// layerOneRootBalls colors g with Theorem 1.3 and returns the roots (and
// the rich mask) of the first peel layer's ruling forest. Balls of distinct
// roots are non-adjacent, so uncoloring one ball of the final coloring
// restores exactly the state extend recolored it from.
func layerOneRootBalls(b *testing.B, name string, g *graph.Graph, d int) rootBallCase {
	nw := local.NewNetwork(g)
	res, err := Run(context.Background(), nw, Config{D: d})
	if err != nil {
		b.Fatal(err)
	}
	radius := res.Radius
	s := newPeelState(g)
	_, lay := happySet(s, radius, func(deg, _ int) bool { return deg <= d }, func(deg, _ int) bool { return deg <= d-1 })
	richMask := make([]bool, g.N())
	for _, v := range lay.rich {
		richMask[v] = true
	}
	labels := ruling.Labels{Comp: s.compOf, Diam: lay.diam}
	forest, err := s.ruling.Compute(context.Background(), nw, &s.tr, &local.Ledger{}, "", richMask, lay.happy, labels, 2*radius+2)
	if err != nil {
		b.Fatal(err)
	}
	return rootBallCase{name, g, res.Lists, res.Colors, richMask, lay.blocks, forest.Roots, radius}
}

// BenchmarkRootBallRecolor times extend's root-ball step as one extension
// layer runs it, carving every ball off the forest's search and recoloring
// it, on one workspace held across ops, as a run holds one across its
// layers: the ~10⁴ small balls of the first layer of an Apollonian graph
// at n=1e5 (the in-place surplus path), the single ball spanning a
// 3-regular graph at n=1e4 (the in-place Brooks path) and the two balls
// of a 4×2500 grid strip, one component with two roots. The forest's
// search, which the ruling forest leaves behind in a run, is redone
// before each op outside the timer.
func BenchmarkRootBallRecolor(b *testing.B) {
	rng := rand.New(rand.NewPCG(20, 3))
	regular, err := gen.RandomRegular(10000, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	cases := []func() rootBallCase{
		func() rootBallCase { return layerOneRootBalls(b, "apollonian_n1e5", gen.Apollonian(100000, rng), 6) },
		func() rootBallCase { return layerOneRootBalls(b, "regular3_n1e4", regular, 3) },
		func() rootBallCase { return layerOneRootBalls(b, "grid4x2500", gen.Grid(4, 2500), 6) },
	}
	for _, mk := range cases {
		c := mk()
		b.Run(c.name, func(b *testing.B) {
			colors := slices.Clone(c.colors)
			var ws ballWorkspace
			tr := new(graph.Traversal).Bind(c.g)
			recolor := func() {
				if err := extendRootBalls(context.Background(), c.g, tr, colors, c.lists, c.blocks, c.radius, &ws); err != nil {
					b.Fatal(err)
				}
			}
			tr.Run(c.roots, c.richMask, -1)
			recolor() // warm the workspace, as a run's earlier layers do
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				tr.Run(c.roots, c.richMask, -1)
				b.StartTimer()
				recolor()
			}
			b.StopTimer()
			if !slices.Equal(colors, c.colors) {
				b.Fatal("recolored balls differ from the run's coloring")
			}
		})
	}
}
