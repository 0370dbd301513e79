package ruling

import (
	"context"
	"math/bits"
	"math/rand/v2"
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
	f, err := Compute(context.Background(), nw, &ledger, "ruling", nil, allVertices(g), 5)
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
	f, err := Compute(context.Background(), nw, nil, "", nil, u, alpha)
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
	f, err := Compute(context.Background(), nw, nil, "", mask, u, 3)
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
		f, err := Compute(context.Background(), nw, nil, "", nil, u, alpha)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		beta := alpha * (bits.Len(uint(n)) + 1)
		if err := f.VerifyInvariants(g, nil, u, beta); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// trees vertex-disjoint is implied by single Parent pointer; check
		// root-per-tree consistency: walking parents terminates at a root.
		for _, v := range f.TreeVertices() {
			x, steps := v, 0
			for f.Parent[x] != -1 {
				x = f.Parent[x]
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
	f, err := Compute(context.Background(), nw, nil, "", nil, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 || f.Roots[0] != 3 {
		t.Errorf("roots=%v, want [3]", f.Roots)
	}
	if len(f.TreeVertices()) != 1 {
		t.Errorf("singleton tree should have exactly the root")
	}
}

func TestRulingForestEmptyU(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	f, err := Compute(context.Background(), nw, nil, "", nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 0 || len(f.TreeVertices()) != 0 {
		t.Error("empty U should give empty forest")
	}
}

func TestRulingForestBadInput(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	if _, err := Compute(context.Background(), nw, nil, "", nil, []int{0}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Compute(context.Background(), nw, nil, "", nil, []int{99}, 2); err == nil {
		t.Error("out-of-range U accepted")
	}
	mask := make([]bool, 6)
	if _, err := Compute(context.Background(), nw, nil, "", mask, []int{0}, 2); err == nil {
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
	f, err := Compute(context.Background(), nw, nil, "", nil, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != len(u) {
		t.Errorf("alpha=1: %d roots, want %d", len(f.Roots), len(u))
	}
}

// referenceRulers is the bit-by-bit merge run literally, the differential
// oracle for Compute's component election and ID-ordered merge: every bit
// level regroups all live candidates by ID prefix in a map and settles each
// group on its own. It returns the rulers in ascending vertex order and
// charges α rounds per level, as Compute must.
func referenceRulers(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) []int {
	g := nw.G
	n := g.N()
	tr := g.AcquireTraversal()
	defer g.ReleaseTraversal(tr)

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

// referenceCompute completes referenceRulers with the forest phase: the
// multi-source BFS forest of the rulers, trimmed to the root paths of U,
// charged maxDepth+1 rounds.
func referenceCompute(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) *Forest {
	g := nw.G
	n := g.N()
	roots := referenceRulers(nw, ledger, phase, mask, u, alpha)
	f := &Forest{Alpha: alpha, Roots: roots, Parent: make([]int, n), Depth: make([]int, n), InTree: make([]bool, n)}
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
// charged rounds must all agree exactly.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1802))
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
		for _, alpha := range []int{1, 2, 3, 4, 5, 6, 7, 8, 2*n + 2} {
			var got, want local.Ledger
			f, err := Compute(context.Background(), nw, &got, "ruling", mask, u, alpha)
			if err != nil {
				t.Fatalf("trial %d α=%d: %v", trial, alpha, err)
			}
			ref := referenceCompute(nw, &want, "ruling", mask, u, alpha)
			if !slices.Equal(f.Roots, ref.Roots) {
				t.Fatalf("trial %d α=%d: roots %v, reference %v", trial, alpha, f.Roots, ref.Roots)
			}
			if !slices.Equal(f.Parent, ref.Parent) || !slices.Equal(f.Depth, ref.Depth) ||
				!slices.Equal(f.InTree, ref.InTree) || f.MaxDepth != ref.MaxDepth {
				t.Fatalf("trial %d α=%d: forest differs from reference", trial, alpha)
			}
			if got.Rounds() != want.Rounds() {
				t.Fatalf("trial %d α=%d: %d rounds, reference %d", trial, alpha, got.Rounds(), want.Rounds())
			}
		}
	}
}

// BenchmarkRulingCompute times one ruling-forest call on the two paths of
// the ruling set: an Apollonian graph at the paper's α for n=1e5, where
// every component is saturated and elects its minimum-ID vertex, and a grid
// at α=8, whose one component is far wider than α and runs the ID-ordered
// merge level by level.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(context.Background(), nw, nil, "", nil, u, c.alpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
