package ruling

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

func allVertices(g *graph.Graph) []int {
	u := make([]int, g.N())
	for i := range u {
		u[i] = i
	}
	return u
}

func TestRulingForestPath(t *testing.T) {
	g := gen.Path(50)
	nw := local.NewNetwork(g)
	var ledger local.Ledger
	f, err := compute(context.Background(), nw, &ledger, "ruling", nil, allVertices(g), 5)
	if err != nil {
		t.Fatal(err)
	}
	beta := 5 * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, nil, allVertices(g), beta); err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) == 0 {
		t.Fatal("no roots")
	}
	if ledger.Rounds() == 0 {
		t.Error("no rounds charged")
	}
}

func TestRulingForestSubsetU(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := gen.Grid(12, 12)
	nw := local.NewShuffledNetwork(g, rng)
	var u []int
	for v := 0; v < g.N(); v++ {
		if rng.Float64() < 0.3 {
			u = append(u, v)
		}
	}
	alpha := 4
	f, err := compute(context.Background(), nw, nil, "", nil, u, alpha)
	if err != nil {
		t.Fatal(err)
	}
	beta := alpha * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, nil, u, beta); err != nil {
		t.Fatal(err)
	}
	// every root must be in U
	inU := map[int]bool{}
	for _, v := range u {
		inU[v] = true
	}
	for _, r := range f.Roots {
		if !inU[r] {
			t.Errorf("root %d not in U", r)
		}
	}
}

func TestRulingForestWithMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.GNP(60, 0.06, rng)
	nw := local.NewShuffledNetwork(g, rng)
	mask := make([]bool, g.N())
	var u []int
	for v := 0; v < g.N(); v++ {
		mask[v] = rng.Float64() < 0.8
		if mask[v] && rng.Float64() < 0.5 {
			u = append(u, v)
		}
	}
	f, err := compute(context.Background(), nw, nil, "", mask, u, 3)
	if err != nil {
		t.Fatal(err)
	}
	beta := 3 * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, mask, u, beta); err != nil {
		t.Fatal(err)
	}
}

func TestRulingForestRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.IntN(60)
		g := gen.GNP(n, 2.0/float64(n), rng)
		nw := local.NewShuffledNetwork(g, rng)
		var u []int
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.4 {
				u = append(u, v)
			}
		}
		if len(u) == 0 {
			continue
		}
		alpha := 2 + rng.IntN(4)
		f, err := compute(context.Background(), nw, nil, "", nil, u, alpha)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		beta := alpha * (bits.Len(uint(n)) + 1)
		if err := f.VerifyInvariants(g, nil, u, beta); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// trees vertex-disjoint is implied by single Parent pointer; check
		// root-per-tree consistency: walking parents terminates at a root.
		parent := make(map[int]int, len(f.Tree))
		for i, v := range f.Tree {
			parent[v] = f.Parent[i]
		}
		for _, v := range f.Tree {
			x, steps := v, 0
			for parent[x] != -1 {
				x = parent[x]
				steps++
				if steps > n {
					t.Fatalf("trial %d: parent cycle at %d", trial, v)
				}
			}
			isRoot := false
			for _, r := range f.Roots {
				if r == x {
					isRoot = true
				}
			}
			if !isRoot {
				t.Fatalf("trial %d: chain from %d ends at non-root %d", trial, v, x)
			}
		}
	}
}

func TestRulingForestSingleton(t *testing.T) {
	g := gen.Cycle(10)
	nw := local.NewNetwork(g)
	f, err := compute(context.Background(), nw, nil, "", nil, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 || f.Roots[0] != 3 {
		t.Errorf("roots=%v, want [3]", f.Roots)
	}
	if len(f.Tree) != 1 {
		t.Errorf("singleton tree should have exactly the root")
	}
}

func TestRulingForestEmptyU(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	f, err := compute(context.Background(), nw, nil, "", nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 0 || len(f.Tree) != 0 {
		t.Error("empty U should give empty forest")
	}
}

func TestRulingForestBadInput(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	if _, err := compute(context.Background(), nw, nil, "", nil, []int{0}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := compute(context.Background(), nw, nil, "", nil, []int{99}, 2); err == nil {
		t.Error("out-of-range U accepted")
	}
	mask := make([]bool, 6)
	if _, err := compute(context.Background(), nw, nil, "", mask, []int{0}, 2); err == nil {
		t.Error("U outside mask accepted")
	}
}

func TestIndependentRulingSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.IntN(70)
		g := gen.GNP(n, 3.0/float64(n), rng)
		nw := local.NewShuffledNetwork(g, rng)
		u := allVertices(g)
		set, err := IndependentRulingSet(context.Background(), nw, nil, "", nil, u)
		if err != nil {
			t.Fatal(err)
		}
		inSet := make([]bool, n)
		for _, v := range set {
			inSet[v] = true
		}
		// independence
		for _, v := range set {
			for _, w := range g.Neighbors(v) {
				if inSet[w] {
					t.Fatalf("trial %d: adjacent pair %d,%d in ruling set", trial, v, int(w))
				}
			}
		}
		// domination within O(log n) in each component containing a U vertex
		beta := 2 * (bits.Len(uint(n)) + 1)
		res := g.BFS(set, nil, beta)
		for v := 0; v < n; v++ {
			if res.Dist[v] == -1 {
				// must be in a component with no ruler — impossible since
				// U = V covers every component
				t.Fatalf("trial %d: vertex %d undominated within %d", trial, v, beta)
			}
		}
	}
}

func TestRulingSetMaximality(t *testing.T) {
	// With alpha=1 nothing is ever dropped: every U vertex is a root.
	g := gen.Grid(5, 5)
	nw := local.NewNetwork(g)
	u := allVertices(g)
	f, err := compute(context.Background(), nw, nil, "", nil, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != len(u) {
		t.Errorf("alpha=1: %d roots, want %d", len(f.Roots), len(u))
	}
}

// compute is Compute on a fresh workspace and traversal, with the
// reference labels.
func compute(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) (*Forest, error) {
	var ws Workspace
	return ws.Compute(ctx, nw, new(graph.Traversal), ledger, phase, mask, u, labelComponents(nw.G, mask, u, firstVertex), alpha)
}

// IndependentRulingSet computes a (2, O(log n))-ruling set of the masked
// graph with respect to U: an independent subset of U such that every
// vertex of U is within O(log n) hops of a member. With U = V this is a
// maximal-independent-set-grade symmetry-breaking primitive, obtained here
// deterministically from the same AGLP machinery (α = 2 makes "distance
// ≥ α" mean exactly "non-adjacent").
func IndependentRulingSet(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int) ([]int, error) {
	f, err := compute(ctx, nw, ledger, phase, mask, u, 2)
	if err != nil {
		return nil, err
	}
	return f.Roots, nil
}

// labelComponents is the reference labeller, the walk Compute ran itself
// before its caller supplied the labels: one search per component holding
// U, from the first U vertex met, in U order. Each component's diameter
// bound is 2·ecc of the vertex pick chooses from its search order (the
// search's source first); out-of-range and unmasked U vertices stay
// unlabeled, for Compute to reject.
func labelComponents(g *graph.Graph, mask []bool, u []int, pick func(order []int32) int32) Labels {
	comp := make([]int32, g.N())
	for v := range comp {
		comp[v] = -1
	}
	tr := new(graph.Traversal).Bind(g)
	var diam []int32
	for _, v := range u {
		if v < 0 || v >= len(comp) || comp[v] >= 0 || (mask != nil && !mask[v]) {
			continue
		}
		tr.Run([]int{v}, mask, -1)
		for _, w := range tr.Order() {
			comp[w] = int32(len(diam))
		}
		tr.Run([]int{int(pick(tr.Order()))}, mask, -1)
		diam = append(diam, int32(2*tr.MaxDist()))
	}
	return Labels{comp, diam}
}

// The vertices whose eccentricity bounds a component's diameter in the
// labels TestComputeSameUnderEveryBound compares: the old walk's first U
// vertex, and the component's least and largest vertex.
func firstVertex(order []int32) int32   { return order[0] }
func leastVertex(order []int32) int32   { return slices.Min(order) }
func largestVertex(order []int32) int32 { return slices.Max(order) }

// referenceRulers is the bit-by-bit merge run literally, the differential
// oracle for Compute's component election and ID-ordered merge: every bit
// level regroups all live candidates by ID prefix in a map and settles each
// group on its own. It returns the rulers in ascending vertex order and
// charges α rounds per level, as Compute must.
func referenceRulers(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) []int {
	g := nw.G
	n := g.N()
	tr := new(graph.Traversal).Bind(g)

	compID := make([]int, n)
	for i := range compID {
		compID[i] = -1
	}
	var compDiamUB []int
	for v := 0; v < n; v++ {
		if (mask != nil && !mask[v]) || compID[v] != -1 {
			continue
		}
		tr.Run([]int{v}, mask, -1)
		id := len(compDiamUB)
		for _, u32 := range tr.Order() {
			compID[u32] = id
		}
		compDiamUB = append(compDiamUB, 2*tr.MaxDist())
	}

	isRuler := make([]bool, n)
	for _, v := range u {
		isRuler[v] = true
	}
	levels := bits.Len(uint(n))
	zeroComps := map[int]bool{}
	for bit := 0; bit < levels; bit++ {
		groups := map[int][]int{}
		for v := 0; v < n; v++ {
			if isRuler[v] {
				groups[nw.ID[v]>>(bit+1)] = append(groups[nw.ID[v]>>(bit+1)], v)
			}
		}
		for _, members := range groups {
			var zeros []int
			hasOne := false
			clear(zeroComps)
			for _, v := range members {
				if (nw.ID[v]>>bit)&1 == 0 {
					zeros = append(zeros, v)
					zeroComps[compID[v]] = true
				} else {
					hasOne = true
				}
			}
			if len(zeros) == 0 || !hasOne {
				continue
			}
			slowZeros := zeros[:0:0]
			for _, z := range zeros {
				if compDiamUB[compID[z]] > alpha-1 {
					slowZeros = append(slowZeros, z)
				}
			}
			if len(slowZeros) > 0 {
				tr.Run(slowZeros, mask, alpha-1)
			}
			for _, v := range members {
				if (nw.ID[v]>>bit)&1 != 1 {
					continue
				}
				c := compID[v]
				if zeroComps[c] && compDiamUB[c] <= alpha-1 {
					isRuler[v] = false
				} else if len(slowZeros) > 0 && tr.Reached(v) {
					isRuler[v] = false
				}
			}
		}
		if ledger != nil {
			ledger.Charge(phase, alpha)
		}
	}
	var roots []int
	for v := 0; v < n; v++ {
		if isRuler[v] {
			roots = append(roots, v)
		}
	}
	return roots
}

// refForest is the n-wide forest shape Compute used to return: Parent and
// Depth per vertex (-1 outside the forest) plus a membership array.
type refForest struct {
	Roots    []int
	Parent   []int
	Depth    []int
	InTree   []bool
	MaxDepth int
}

// referenceCompute completes referenceRulers with the forest phase as it
// was written before the forest became list-shaped: the multi-source BFS
// forest of the rulers, trimmed to the root paths of U, in n-wide arrays,
// charged maxDepth+1 rounds.
func referenceCompute(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) *refForest {
	g := nw.G
	n := g.N()
	roots := referenceRulers(nw, ledger, phase, mask, u, alpha)
	f := &refForest{Roots: roots, Parent: make([]int, n), Depth: make([]int, n), InTree: make([]bool, n)}
	for v := 0; v < n; v++ {
		f.Parent[v] = -1
		f.Depth[v] = -1
	}
	res := g.BFS(roots, mask, -1)
	keep := make([]bool, n)
	for _, v := range u {
		for x := v; x != -1 && !keep[x]; x = res.Parent[x] {
			keep[x] = true
		}
	}
	for v := 0; v < n; v++ {
		if keep[v] {
			f.InTree[v] = true
			f.Parent[v] = res.Parent[v]
			f.Depth[v] = res.Dist[v]
			f.MaxDepth = max(f.MaxDepth, res.Dist[v])
		}
	}
	if ledger != nil {
		ledger.Charge(phase, f.MaxDepth+1)
	}
	return f
}

// sameForest reports whether the list-shaped forest f equals the n-wide
// reference: same roots, the reference's tree vertices in ascending order,
// and the same parent and depth at each of them.
func sameForest(f *Forest, ref *refForest) bool {
	if !slices.Equal(f.Roots, ref.Roots) || f.MaxDepth != ref.MaxDepth ||
		len(f.Parent) != len(f.Tree) || len(f.Depth) != len(f.Tree) {
		return false
	}
	var tree []int
	for v, in := range ref.InTree {
		if in {
			tree = append(tree, v)
		}
	}
	if !slices.Equal(f.Tree, tree) {
		return false
	}
	for i, v := range f.Tree {
		if f.Parent[i] != ref.Parent[v] || f.Depth[i] != ref.Depth[v] {
			return false
		}
	}
	return true
}

// randomPieces returns a disjoint union of 2–6 small paths, cycles, grids
// and random 3-regular graphs, so one ruling call sees components on both
// sides of the saturation threshold.
func randomPieces(t *testing.T, rng *rand.Rand) *graph.Graph {
	t.Helper()
	var pieces []*graph.Graph
	for k := 2 + rng.IntN(5); k > 0; k-- {
		switch rng.IntN(4) {
		case 0:
			pieces = append(pieces, gen.Path(1+rng.IntN(40)))
		case 1:
			pieces = append(pieces, gen.Cycle(3+rng.IntN(38)))
		case 2:
			pieces = append(pieces, gen.Grid(1+rng.IntN(8), 1+rng.IntN(8)))
		default:
			g, err := gen.RandomRegular(4+2*rng.IntN(14), 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			pieces = append(pieces, g)
		}
	}
	return gen.Disjoint(pieces...)
}

// TestComputeMatchesReference checks Compute against the map-based
// original on seeded random inputs: mixed component shapes, α from 1 to 8
// plus one above every diameter, random U subsets (with an occasional
// duplicate), random masks and shuffled IDs. Roots, the forest and the
// charged rounds must all agree exactly. One workspace and one traversal
// serve every call, across graphs of different sizes.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1802))
	var ws Workspace
	var tr graph.Traversal
	for trial := 0; trial < 300; trial++ {
		g := randomPieces(t, rng)
		n := g.N()
		nw := local.NewNetwork(g)
		rng.Shuffle(n, func(i, j int) { nw.ID[i], nw.ID[j] = nw.ID[j], nw.ID[i] })
		var mask []bool
		if rng.IntN(2) == 0 {
			mask = make([]bool, n)
			for v := range mask {
				mask[v] = rng.Float64() < 0.85
			}
		}
		p := 0.1 + 0.9*rng.Float64()
		var u []int
		for v := 0; v < n; v++ {
			if (mask == nil || mask[v]) && rng.Float64() < p {
				u = append(u, v)
			}
		}
		if len(u) > 0 && rng.IntN(4) == 0 {
			u = append(u, u[rng.IntN(len(u))])
		}
		labels := labelComponents(g, mask, u, firstVertex)
		for _, alpha := range []int{1, 2, 3, 4, 5, 6, 7, 8, 2*n + 2} {
			var got, want local.Ledger
			f, err := ws.Compute(context.Background(), nw, &tr, &got, "ruling", mask, u, labels, alpha)
			if err != nil {
				t.Fatalf("trial %d α=%d: %v", trial, alpha, err)
			}
			ref := referenceCompute(nw, &want, "ruling", mask, u, alpha)
			if !slices.Equal(f.Roots, ref.Roots) {
				t.Fatalf("trial %d α=%d: roots %v, reference %v", trial, alpha, f.Roots, ref.Roots)
			}
			if !sameForest(f, ref) {
				t.Fatalf("trial %d α=%d: forest differs from reference", trial, alpha)
			}
			if got.Rounds() != want.Rounds() {
				t.Fatalf("trial %d α=%d: %d rounds, reference %d", trial, alpha, got.Rounds(), want.Rounds())
			}
		}
	}
}

// TestComputeSameUnderEveryBound checks that the forest does not depend on
// which valid diameter bound the labels carry: labels bounding each
// component by 2·ecc of the old walk's first U vertex, of its least vertex
// and of its largest vertex all give the reference's roots, forest and
// rounds. The inputs hold saturated and unsaturated components: random
// pieces, and a 4×60 grid strip, whose corner bound (124) and middle bound
// (about 66) put one component on both sides of α−1 for α between them.
func TestComputeSameUnderEveryBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	picks := []func([]int32) int32{firstVertex, leastVertex, largestVertex}
	var ws Workspace
	var tr graph.Traversal
	split := 0 // calls where the labels disagree on a component's saturation
	for trial := range 90 {
		g := gen.Grid(4, 60)
		if trial%3 != 0 {
			g = randomPieces(t, rng)
		}
		n := g.N()
		nw := local.NewShuffledNetwork(g, rng)
		var mask []bool
		if rng.IntN(2) == 0 {
			mask = make([]bool, n)
			for v := range mask {
				mask[v] = rng.Float64() < 0.9
			}
		}
		var u []int
		for v := 0; v < n; v++ {
			if (mask == nil || mask[v]) && rng.Float64() < 0.5 {
				u = append(u, v)
			}
		}
		var labels [3]Labels
		for i, pick := range picks {
			labels[i] = labelComponents(g, mask, u, pick)
		}
		for _, alpha := range []int{2, 3, 5, 8, 20, 70, 100, 2*n + 2} {
			var want local.Ledger
			ref := referenceCompute(nw, &want, "ruling", mask, u, alpha)
			for i := range labels {
				var got local.Ledger
				f, err := ws.Compute(context.Background(), nw, &tr, &got, "ruling", mask, u, labels[i], alpha)
				if err != nil {
					t.Fatalf("trial %d α=%d labels %d: %v", trial, alpha, i, err)
				}
				if !sameForest(f, ref) || got.Rounds() != want.Rounds() {
					t.Fatalf("trial %d α=%d labels %d: forest or rounds differ from the reference (roots %v, reference %v)",
						trial, alpha, i, f.Roots, ref.Roots)
				}
			}
			for c := range labels[0].Diam {
				saturated := 0
				for i := range labels {
					if int(labels[i].Diam[c]) <= alpha-1 {
						saturated++
					}
				}
				if saturated == 1 || saturated == 2 {
					split++
				}
			}
		}
	}
	if split < 20 {
		t.Fatalf("only %d components saturated under some labels and not others", split)
	}
}

// checkComputeAgainstReference runs Compute and referenceCompute at each α
// and fails unless roots, forest and charged rounds agree.
func checkComputeAgainstReference(t *testing.T, name string, nw *local.Network, mask []bool, u []int, alphas []int) {
	t.Helper()
	for _, alpha := range alphas {
		var got, want local.Ledger
		f, err := compute(context.Background(), nw, &got, "ruling", mask, u, alpha)
		if err != nil {
			t.Fatalf("%s α=%d: %v", name, alpha, err)
		}
		ref := referenceCompute(nw, &want, "ruling", mask, u, alpha)
		if !sameForest(f, ref) {
			t.Fatalf("%s α=%d: forest differs from reference (roots %v, reference %v)", name, alpha, f.Roots, ref.Roots)
		}
		if got.Rounds() != want.Rounds() {
			t.Fatalf("%s α=%d: %d rounds, reference %d", name, alpha, got.Rounds(), want.Rounds())
		}
	}
}

// TestComputeMatchesReferenceFamilies compares Compute with the n-wide
// reference on GNP, Apollonian, grid and 3-regular graphs under random
// masks and a nil mask, with random U and shuffled IDs.
func TestComputeMatchesReferenceFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 4))
	regular, err := gen.RandomRegular(1200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(1000, 3.0/1000, rng)},
		{"apollonian", gen.Apollonian(1200, rng)},
		{"grid", gen.Grid(30, 40)},
		{"regular3", regular},
	}
	for _, tc := range graphs {
		n := tc.g.N()
		nw := local.NewShuffledNetwork(tc.g, rng)
		for trial := 0; trial < 4; trial++ {
			var mask []bool
			if trial > 0 {
				mask = make([]bool, n)
				p := []float64{0.3, 0.6, 0.9}[trial-1]
				for v := range mask {
					mask[v] = rng.Float64() < p
				}
			}
			var u []int
			for v := 0; v < n; v++ {
				if (mask == nil || mask[v]) && rng.Float64() < 0.4 {
					u = append(u, v)
				}
			}
			checkComputeAgainstReference(t, tc.name, nw, mask, u, []int{2, 3, 6, 2*n + 2})
		}
	}
}

// TestComputeSmallUInLargeGraph runs Compute on a 100-vertex mask (a
// connected patch plus scattered vertices) inside an n=1e5 graph, with U
// the whole mask: the path Compute takes once per late, small peel layer.
func TestComputeSmallUInLargeGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 5))
	g := gen.Apollonian(100000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	mask := smallMask(g, rng)
	var u []int
	for v, in := range mask {
		if in {
			u = append(u, v)
		}
	}
	checkComputeAgainstReference(t, "apollonian1e5/100", nw, mask, u, []int{2, 4, 1518})
}

// BenchmarkRulingCompute times one ruling-forest call on the two paths of
// the ruling set: an Apollonian graph at the paper's α for n=1e5, where
// every component is saturated and elects its minimum-ID vertex, and a grid
// at α=8, whose one component is far wider than α and runs the ID-ordered
// merge level by level. The labels are built before the timer, as a run's
// peel builds them; one warm workspace and traversal serve every call, as
// a run's serve its layers.
func BenchmarkRulingCompute(b *testing.B) {
	cases := []struct {
		name  string
		g     func() *graph.Graph
		alpha int
	}{
		{"apollonian:100000/alpha1518", func() *graph.Graph {
			return gen.Apollonian(100000, rand.New(rand.NewPCG(1, 1)))
		}, 1518},
		{"grid300x300/alpha8", func() *graph.Graph { return gen.Grid(300, 300) }, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.g()
			nw := local.NewShuffledNetwork(g, rand.New(rand.NewPCG(2, 2)))
			u := allVertices(g)
			labels := labelComponents(g, nil, u, firstVertex)
			var ws Workspace
			var tr graph.Traversal
			compute := func() {
				if _, err := ws.Compute(context.Background(), nw, &tr, nil, "", nil, u, labels, c.alpha); err != nil {
					b.Fatal(err)
				}
			}
			compute() // warm the workspace and the traversal, as a run's earlier layers do
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compute()
			}
		})
	}
}

// smallMask marks 100 vertices of g: a connected patch of 60 (a BFS prefix
// from a random vertex) plus 40 scattered ones.
func smallMask(g *graph.Graph, rng *rand.Rand) []bool {
	mask := make([]bool, g.N())
	for _, v := range g.Ball(rng.IntN(g.N()), 5, nil)[:60] {
		mask[v] = true
	}
	for picked := 0; picked < 40; {
		if v := rng.IntN(g.N()); !mask[v] {
			mask[v] = true
			picked++
		}
	}
	return mask
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

// TestComputeAllocatesPerU checks that a warm Compute with |U| = 100 (U the
// whole 100-vertex mask) in an n=1e5 graph allocates for U, not for the
// graph: under 64 KiB, where n-wide forest arrays would take megabytes.
func TestComputeAllocatesPerU(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 10))
	g := gen.Apollonian(100000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	mask := smallMask(g, rng)
	var u []int
	for v, in := range mask {
		if in {
			u = append(u, v)
		}
	}
	labels := labelComponents(g, mask, u, firstVertex)
	var ws Workspace
	var tr graph.Traversal
	run := func() {
		if _, err := ws.Compute(context.Background(), nw, &tr, nil, "", mask, u, labels, 4); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocBytes(run); got >= 64<<10 {
		t.Fatalf("Compute with |U|=%d of %d vertices allocated %d bytes, want < 64 KiB", len(u), g.N(), got)
	}
}
