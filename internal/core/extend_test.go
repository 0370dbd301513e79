package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/ruling"
	"distcolor/internal/seqcolor"
)

// TestExtendColorsOnlyAliveVertices drives happySet and extend layer by
// layer, as peelAndExtend does, and checks after every extension that each
// colored vertex is alive. extend's neighbor scans count every colored
// neighbor with no alive mask; this invariant is what makes that exact.
func TestExtendColorsOnlyAliveVertices(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 9))
	regular, err := gen.RandomRegular(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"apollonian", gen.Apollonian(300, rng), 6},
		{"regular3", regular, 3},
		{"grid", gen.Grid(12, 12), 3},
	}
	for _, tc := range cases {
		for _, c := range []float64{DefaultBallC, 0.3} {
			g, d, n := tc.g, tc.d, tc.g.N()
			radius := max(1, int(math.Ceil(c*math.Log2(float64(n)))))
			richTest := func(deg, _ int) bool { return deg <= d }
			witness := func(deg, _ int) bool { return deg <= d-1 }
			s := newPeelState(g)
			var layers []layer
			for len(s.alive) > 0 {
				_, lay := happySet(s, radius, richTest, witness)
				if len(lay.happy) == 0 {
					t.Fatalf("%s c=%.2f: peeling stalled with %d alive", tc.name, c, len(s.alive))
				}
				layers = append(layers, lay)
				s.peel(lay.happy)
			}
			alive := make([]bool, n)
			nw := local.NewNetwork(g)
			ledger := &local.Ledger{}
			lists := randomLists(n, d, 2*d+2, rng)
			colors := make([]int, n)
			for v := range colors {
				colors[v] = Uncolored
			}
			for i := len(layers) - 1; i >= 0; i-- {
				for _, v := range layers[i].happy {
					alive[v] = true
				}
				if _, err := extend(context.Background(), nw, ledger, s, layers[i], colors, seqcolor.Given(lists), radius); err != nil {
					t.Fatalf("%s c=%.2f layer %d: %v", tc.name, c, i+1, err)
				}
				for v, col := range colors {
					if col != Uncolored && !alive[v] {
						t.Fatalf("%s c=%.2f layer %d: vertex %d colored %d but not alive", tc.name, c, i+1, v, col)
					}
				}
			}
			if err := seqcolor.Verify(g, colors, seqcolor.Given(lists)); err != nil {
				t.Fatalf("%s c=%.2f: %v", tc.name, c, err)
			}
		}
	}
}

// extendFull is extend with every (depth, class) bucket of the layered
// pass colored, including those the root balls then recolor, and every
// ball recolored on the fresh Theorem 1.1 path: a fresh induced graph,
// effective lists and block decomposition per ball. It is the oracle for
// extend's skipped buckets and for its spanning-ball and one-block
// shortcuts.
func extendFull(ctx context.Context, nw *local.Network, ledger *local.Ledger, richMask []bool,
	lay layer, colors []int, lists [][]int, radius int) (extendStats, error) {
	g := nw.G
	for _, v := range lay.rich {
		richMask[v] = true
	}
	defer func() {
		for _, v := range lay.rich {
			richMask[v] = false
		}
	}()
	labels := walkLabels(g, richMask, lay.happy)
	forest, err := new(ruling.Workspace).Compute(ctx, nw, new(graph.Traversal), ledger, "extend/ruling", richMask, lay.happy, labels, 2*radius+2)
	if err != nil {
		return extendStats{}, err
	}
	st := extendStats{roots: len(forest.Roots), treeSize: len(forest.Tree), maxDepth: forest.MaxDepth}
	for _, v := range forest.Tree {
		colors[v] = Uncolored
	}
	classes := new(reduce.Workspace).DegPlusOne(nw, ledger, "extend/schedule", forest.Tree)
	maxClass := slices.Max(append([]int{0}, classes...))
	buckets := make([][]int, (forest.MaxDepth+1)*(maxClass+1))
	for i, v := range forest.Tree {
		if d := forest.Depth[i]; d >= 1 {
			slot := d*(maxClass+1) + classes[i]
			buckets[slot] = append(buckets[slot], v)
		}
	}
	for depth := forest.MaxDepth; depth >= 1; depth-- {
		for class := 0; class <= maxClass; class++ {
			bucket := buckets[depth*(maxClass+1)+class]
			if len(bucket) == 0 {
				continue
			}
			if err := seqcolor.GreedyInOrder(g, colors, seqcolor.Given(lists), bucket); err != nil {
				return st, err
			}
			ledger.Charge("extend/layered", 1)
		}
	}
	for _, r := range forest.Roots {
		ball := g.Ball(r, radius, richMask)
		for _, u := range ball {
			colors[u] = Uncolored
		}
		if err := colorBallFresh(g, colors, lists, ball); err != nil {
			return st, err
		}
	}
	if len(forest.Roots) > 0 {
		ledger.Charge("extend/rootballs", radius+1)
	}
	return st, nil
}

// walkLabels labels the components of the masked graph that hold U as the
// ruling forest once did itself, independently of the peel: one search per
// component from the first U vertex met, whose doubled eccentricity bounds
// the diameter.
func walkLabels(g *graph.Graph, mask []bool, u []int) ruling.Labels {
	comp := make([]int32, g.N())
	for v := range comp {
		comp[v] = -1
	}
	var diam []int32
	for _, v := range u {
		if comp[v] >= 0 {
			continue
		}
		res := g.BFS([]int{v}, mask, -1)
		for _, w := range res.Order {
			comp[w] = int32(len(diam))
		}
		diam = append(diam, int32(2*res.Dist[res.Order[len(res.Order)-1]]))
	}
	return ruling.Labels{Comp: comp, Diam: diam}
}

// checkOneBlockMinima checks that every minimum happySet recorded starts a
// component of G[R] that lies within radius of each of its vertices and
// is one bad block, by a fresh block decomposition of that component.
func checkOneBlockMinima(t *testing.T, name string, g *graph.Graph, lay layer, radius int) {
	t.Helper()
	if !slices.IsSorted(lay.blocks) {
		t.Fatalf("%s: one-block minima %v not ascending", name, lay.blocks)
	}
	rich := make([]bool, g.N())
	for _, v := range lay.rich {
		rich[v] = true
	}
	for _, m := range lay.blocks {
		comp := g.Ball(m, -1, rich)
		if slices.Min(comp) != m {
			t.Fatalf("%s: recorded %d is not its component's minimum", name, m)
		}
		mask := make([]bool, g.N())
		for _, v := range comp {
			mask[v] = true
		}
		for _, v := range comp {
			if ecc := g.Eccentricity(v, mask); ecc > radius {
				t.Fatalf("%s: component of %d: vertex %d has eccentricity %d > radius %d", name, m, v, ecc, radius)
			}
		}
		dec := g.Blocks(mask)
		if len(dec.Blocks) != 1 || len(dec.Blocks[0].Vertices) != len(comp) || graph.FirstBadBlock(dec) != 0 {
			t.Fatalf("%s: component of %d (%d vertices, %d blocks) is not one bad block", name, m, len(comp), len(dec.Blocks))
		}
	}
}

// bridgedCubic joins two copies of K4 with one edge subdivided by an edge
// between the subdivision vertices: a 3-regular graph with no vertex of
// degree ≤ 2 whose two bad blocks hang off a bridge.
func bridgedCubic() *graph.Graph {
	half := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {4, 3}, {2, 3}}
	var edges [][2]int
	for _, e := range half {
		edges = append(edges, e, [2]int{e[0] + 5, e[1] + 5})
	}
	return graph.MustNew(10, append(edges, [2]int{4, 9}))
}

// TestExtendMatchesFullLayeredPass runs the extension layer by layer with
// extend and with extendFull on the same layers, and requires the same
// colors after every layer and the same ledger. Small ball constants give
// layers whose ruling forest is deeper than the radius, so the layered
// pass colors some buckets and leaves the rest to the balls; the default
// constant gives whole-graph balls, spanning one-block components (the
// torus and the 3-regular graph) and a spanning component with a bridge
// that must not be recorded as one block.
func TestExtendMatchesFullLayeredPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 4))
	regular, err := gen.RandomRegular(1500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		name string
		g    *graph.Graph
		d    int
		deep bool // some small-constant layer must be deeper than radius
	}{
		{"grid", gen.Grid(40, 40), 3, true},
		{"apollonian", gen.Apollonian(1500, rng), 6, true},
		{"regular3", regular, 3, true},
		{"torus", gen.TorusGrid(12, 12), 4, false},
		{"bridged", bridgedCubic(), 3, false},
	}
	oneBlock := map[string]bool{}
	for _, h := range hosts {
		deep := false
		for _, c := range []float64{0.3, 0.5, 1, DefaultBallC} {
			g, d, n := h.g, h.d, h.g.N()
			name := fmt.Sprintf("%s c=%.2f", h.name, c)
			radius := max(1, int(math.Ceil(c*math.Log2(float64(n)))))
			s := newPeelState(g)
			var layers []layer
			for len(s.alive) > 0 {
				_, lay := happySet(s, radius, func(deg, _ int) bool { return deg <= d }, func(deg, _ int) bool { return deg <= d-1 })
				if len(lay.happy) == 0 {
					t.Fatalf("%s: peeling stalled with %d alive", name, len(s.alive))
				}
				checkOneBlockMinima(t, name, g, lay, radius)
				oneBlock[h.name] = oneBlock[h.name] || len(lay.blocks) > 0
				layers = append(layers, lay)
				s.peel(lay.happy)
			}
			lists := randomLists(n, d, 2*d+2, rng)
			if c == DefaultBallC {
				lists = seqcolor.UniformLists(n, d) // tight everywhere on regular hosts
			}
			nw := local.NewNetwork(g)
			got, want := make([]int, n), make([]int, n)
			for v := range got {
				got[v], want[v] = Uncolored, Uncolored
			}
			gotLedger, wantLedger := &local.Ledger{}, &local.Ledger{}
			for i := len(layers) - 1; i >= 0; i-- {
				gotSt, err := extend(context.Background(), nw, gotLedger, s, layers[i], got, seqcolor.Given(lists), radius)
				if err != nil {
					t.Fatalf("%s layer %d: %v", name, i+1, err)
				}
				wantSt, err := extendFull(context.Background(), nw, wantLedger, s.rich, layers[i], want, lists, radius)
				if err != nil {
					t.Fatalf("%s layer %d: full pass: %v", name, i+1, err)
				}
				if gotSt != wantSt {
					t.Fatalf("%s layer %d: stats %+v, full pass %+v", name, i+1, gotSt, wantSt)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s layer %d (max depth %d, radius %d): colors differ from the full layered pass", name, i+1, gotSt.maxDepth, radius)
				}
				deep = deep || (c < DefaultBallC && gotSt.maxDepth > radius)
			}
			if !slices.Equal(gotLedger.Phases(), wantLedger.Phases()) {
				t.Fatalf("%s: ledger %v, full pass %v", name, gotLedger.Phases(), wantLedger.Phases())
			}
			if err := seqcolor.Verify(g, got, seqcolor.Given(lists)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if h.deep && !deep {
			t.Fatalf("%s: no layer deeper than radius; the skipped buckets went untested", h.name)
		}
	}
	for _, name := range []string{"torus", "regular3"} {
		if !oneBlock[name] {
			t.Fatalf("%s: no one-block component recorded", name)
		}
	}
	if oneBlock["bridged"] {
		t.Fatal("bridged: a component with a bridge was recorded as one block")
	}
}

// TestHappySetLabelsHappyVertices drives the peel layer by layer and checks
// the ruling labels happySet leaves for extend: each happy vertex of the
// layer carries the index of its component of G[R] among the components
// holding a happy vertex, numbered by their minima, and diam holds 2·ecc
// of each such component's minimum. No other label is written: the test
// fills the labels with -1 first, and every alive vertex that is not happy
// in the layer must still read -1.
func TestHappySetLabelsHappyVertices(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 3))
	regular, err := gen.RandomRegular(600, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"grid", gen.Grid(30, 30), 3},
		{"apollonian", gen.Apollonian(800, rng), 6},
		{"regular3", regular, 3},
		{"bridged", bridgedCubic(), 3},
	}
	for _, h := range hosts {
		for _, c := range []float64{0.3, 1, DefaultBallC} {
			g, d, n := h.g, h.d, h.g.N()
			radius := max(1, int(math.Ceil(c*math.Log2(float64(n)))))
			s := newPeelState(g)
			for v := range s.compOf {
				s.compOf[v] = -1
			}
			for layerNo := 1; len(s.alive) > 0; layerNo++ {
				name := fmt.Sprintf("%s c=%.2f layer %d", h.name, c, layerNo)
				alive := slices.Clone(s.alive)
				_, lay := happySet(s, radius, func(deg, _ int) bool { return deg <= d }, func(deg, _ int) bool { return deg <= d-1 })
				if len(lay.happy) == 0 {
					t.Fatalf("%s: peeling stalled", name)
				}
				rich, happy := make([]bool, n), make([]bool, n)
				for _, v := range lay.rich {
					rich[v] = true
				}
				for _, v := range lay.happy {
					happy[v] = true
				}
				labeled := 0
				for _, comp := range g.Components(rich) {
					if !slices.ContainsFunc(comp, func(v int) bool { return happy[v] }) {
						continue
					}
					if labeled >= len(lay.diam) {
						t.Fatalf("%s: %d component bounds, more components hold a happy vertex", name, len(lay.diam))
					}
					if want := 2 * g.Eccentricity(comp[0], rich); int(lay.diam[labeled]) != want {
						t.Fatalf("%s: component %d (minimum %d) bound %d, want 2·ecc = %d", name, labeled, comp[0], lay.diam[labeled], want)
					}
					for _, v := range comp {
						if happy[v] && s.compOf[v] != int32(labeled) {
							t.Fatalf("%s: happy vertex %d labeled %d, want %d", name, v, s.compOf[v], labeled)
						}
					}
					labeled++
				}
				if labeled != len(lay.diam) {
					t.Fatalf("%s: %d component bounds for %d components holding a happy vertex", name, len(lay.diam), labeled)
				}
				for _, v := range alive {
					if !happy[v] && s.compOf[v] != -1 {
						t.Fatalf("%s: vertex %d is not happy but labeled %d", name, v, s.compOf[v])
					}
				}
				s.peel(lay.happy)
			}
		}
	}
}

// TestExtendHonorsCancelAfterLastRuling cancels a planar6 run from a ledger
// observer at the last extension layer's last schedule charge, after the
// last ruling forest has checked ctx, and requires context.Canceled: the
// steps after the schedule check ctx too, so a deadline there still stops
// the run instead of returning a coloring late.
func TestExtendHonorsCancelAfterLastRuling(t *testing.T) {
	g := gen.Apollonian(3000, rand.New(rand.NewPCG(4, 12)))
	// run colors g on a traced ledger whose observer sees every charge.
	run := func(ctx context.Context, observe func(phase string)) error {
		var l local.Ledger
		l.Begin()
		local.OnCharge(&l, func(phase string, _, _ int) { observe(phase) })
		_, err := Run(ctx, local.NewNetwork(g), Config{D: 6, Ledger: &l})
		return err
	}
	var phases []string
	if err := run(context.Background(), func(phase string) { phases = append(phases, phase) }); err != nil {
		t.Fatal(err)
	}
	last := -1
	for i, phase := range phases {
		if strings.HasPrefix(phase, "extend/schedule") {
			last = i
		}
	}
	if last < 0 || slices.Contains(phases[last:], "extend/ruling") {
		t.Fatalf("the last schedule charge is not in the last layer: charges %v", phases)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	charges := 0
	err := run(ctx, func(string) {
		if charges++; charges == last+1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled at the last layer's schedule returned %v, want context.Canceled", err)
	}
}
