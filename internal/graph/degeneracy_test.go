package graph

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// refDegeneracy is the list-of-stacks elimination Degeneracy replaced, kept
// as its oracle: one growing stack per degree, stale entries skipped on
// pop, and a rescan from bucket 0 on every removal.
func refDegeneracy(g *Graph) DegeneracyResult {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	res := DegeneracyResult{
		Order: make([]int, 0, n),
		Pos:   make([]int, n),
	}
	removed := make([]bool, n)
	for len(res.Order) < n {
		// find the lowest nonempty bucket with a still-valid entry
		found := -1
		for d := 0; d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				v := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if removed[v] || deg[v] != d {
					continue
				}
				found = v
				break
			}
			if found != -1 {
				break
			}
		}
		if found == -1 {
			break // should not happen
		}
		v := found
		removed[v] = true
		if deg[v] > res.Degeneracy {
			res.Degeneracy = deg[v]
		}
		res.Pos[v] = len(res.Order)
		res.Order = append(res.Order, v)
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if removed[w] {
				continue
			}
			deg[w]--
			buckets[deg[w]] = append(buckets[deg[w]], w)
		}
	}
	return res
}

// refFindCliqueDPlus1 is the clique search FindCliqueDPlus1 replaced, kept
// as its oracle: a full order and positions first, then a second scan of
// every vertex's later neighborhood. bigLater reports whether the clique
// came out of the later-neighborhood-bigger-than-d search.
func refFindCliqueDPlus1(g *Graph, d int) (clique []int, bigLater bool) {
	if d < 1 {
		return nil, false
	}
	res := refDegeneracy(g)
	later := make([]int, 0, d+1)
	for _, v := range res.Order {
		later = later[:0]
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if res.Pos[w] > res.Pos[v] {
				later = append(later, w)
			}
		}
		if len(later) < d {
			continue
		}
		if len(later) == d {
			if g.IsClique(later) {
				return append([]int{v}, later...), false
			}
			continue
		}
		if len(later) <= d+6 {
			if sub := findCliqueOfSize(g, later, d); sub != nil {
				return append([]int{v}, sub...), true
			}
		}
	}
	return nil, false
}

// degeneracyCases returns random graphs of growing density, a few with a
// planted clique, plus the small families.
func degeneracyCases(rng *rand.Rand) []*Graph {
	gs := []*Graph{MustNew(0, nil), MustNew(1, nil), path(12), cycle(9), complete(7), petersen()}
	for trial := range 60 {
		n := 5 + rng.IntN(120)
		p := (1 + rng.Float64()*float64(1+trial%10)) / float64(n)
		gs = append(gs, randomGraph(rng, n, min(p, 0.9)))
		if trial%3 == 0 {
			gs = append(gs, plantClique(rng, randomGraph(rng, n, 2.5/float64(n)), 2+rng.IntN(min(n-1, 8))))
		}
	}
	return gs
}

// plantClique returns g plus a clique on k random vertices.
func plantClique(rng *rand.Rand, g *Graph, k int) *Graph {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdgeOK(e[0], e[1])
	}
	members := rng.Perm(g.N())[:k]
	for i, u := range members {
		for _, v := range members[i+1:] {
			b.AddEdgeOK(u, v)
		}
	}
	return b.Graph()
}

// TestDegeneracyMatchesReference checks Degeneracy against the old
// elimination on random graphs: the same degeneracy, the same order (so the
// same LIFO tie-breaking) and the same positions.
func TestDegeneracyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	for i, g := range degeneracyCases(rng) {
		got, want := g.Degeneracy(), refDegeneracy(g)
		if got.Degeneracy != want.Degeneracy || !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Pos, want.Pos) {
			t.Fatalf("case %d (n=%d, m=%d): got degeneracy %d order %v, reference %d order %v",
				i, g.N(), g.M(), got.Degeneracy, got.Order, want.Degeneracy, want.Order)
		}
	}
}

// refCoreSize is the size of the d-core of g by its definition: remove a
// vertex with fewer than d remaining neighbors until none is left.
func refCoreSize(g *Graph, d int) int {
	size, _ := refCore(g, d)
	return size
}

// refCore returns the size of the d-core by repeated scans and whether
// the core is non-empty and d-regular.
func refCore(g *Graph, d int) (size int, regular bool) {
	in := make([]bool, g.N())
	for v := range in {
		in[v] = true
	}
	size = g.N()
	for changed := true; changed; {
		changed = false
		for v := range in {
			if in[v] && g.DegreeInMask(v, in) < d {
				in[v] = false
				size--
				changed = true
			}
		}
	}
	regular = size > 0
	for v := range in {
		if in[v] && g.DegreeInMask(v, in) != d {
			regular = false
		}
	}
	return size, regular
}

// regularCases returns, for clique size d+1, graphs whose d-core is
// d-regular or nearly so, each under a random vertex numbering: a union of
// d random perfect matchings (a d-regular graph with, for d ≥ 3, almost
// never a K_{d+1}); that graph beside K_{d+1} components; both with
// pendant paths, which the peel removes to leave a d-regular core; and
// cores that are not regular, with a K_{d+1} in which no vertex has the
// clique for its neighbourhood: two K_{d+1}s joined by a perfect
// matching, with and without a pendant path, and the regular graph beside
// a K_{d+1} each of whose vertices also joins it.
func regularCases(rng *rand.Rand, d int) []*Graph {
	matchings := func(n int) [][2]int {
	retry:
		for {
			seen := map[[2]int]bool{}
			var edges [][2]int
			for range d {
				p := rng.Perm(n)
				for i := 0; i < n; i += 2 {
					e := [2]int{min(p[i], p[i+1]), max(p[i], p[i+1])}
					if seen[e] {
						continue retry
					}
					seen[e] = true
					edges = append(edges, e)
				}
			}
			return edges
		}
	}
	clique := func(base int) [][2]int {
		var edges [][2]int
		for u := base; u <= base+d; u++ {
			for v := u + 1; v <= base+d; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
		return edges
	}
	// pendants hangs a path of two on each of the first count vertices.
	pendants := func(n int, edges [][2]int, count int) (int, [][2]int) {
		for v := range count {
			edges = append(edges, [2]int{v, n}, [2]int{n, n + 1})
			n += 2
		}
		return n, edges
	}
	// build numbers the n vertices at random.
	build := func(n int, edges [][2]int) *Graph {
		p := rng.Perm(n)
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdgeOK(p[e[0]], p[e[1]])
		}
		return b.Graph()
	}
	const n = 40
	reg := matchings(n)
	beside := append(append(slices.Clone(reg), clique(n)...), clique(n+d+1)...)
	nb := n + 2*(d+1)
	pn, peeled := pendants(n, slices.Clone(reg), 5)
	pb, peeledBeside := pendants(nb, slices.Clone(beside), n+d+1)
	twin := append(clique(0), clique(d+1)...)
	for u := range d + 1 {
		twin = append(twin, [2]int{u, d + 1 + u})
	}
	tn, twinPeeled := pendants(2*(d+1), slices.Clone(twin), 1)
	joined := append(slices.Clone(reg), clique(n)...)
	for u := n; u <= n+d; u++ {
		joined = append(joined, [2]int{u - n, u})
	}
	return []*Graph{
		build(n, reg), build(nb, beside), build(pn, peeled), build(pb, peeledBeside),
		build(2*(d+1), twin), build(tn, twinPeeled), build(n+d+1, joined),
	}
}

// coreCases returns, for clique size d+1, graphs that reach each way out
// of FindCliqueDPlus1: an empty d-core (every vertex joins at most d-1
// earlier ones), a non-empty d-core holding no K_{d+1} (K_{d,d} with
// pendant paths), a K_{d+1} reached only through a path of degree-2
// vertices and pendant trees, and minimum degree ≥ d with and without a
// clique (K_{d,d}, K_{d+1}, a ring of K_{d+1}s joined by single edges,
// the d-th power of a cycle).
func coreCases(rng *rand.Rand, d int) []*Graph {
	join := func(b *Builder, u, v int) { b.AddEdgeOK(u, v) }
	// sparse: each vertex joins up to d-1 earlier ones.
	b := NewBuilder(60)
	for v := 1; v < 60; v++ {
		for range d - 1 {
			join(b, v, rng.IntN(v))
		}
	}
	sparse := b.Graph()
	// bipartite: K_{d,d} on 0..2d-1, then pendant paths of 3 from random
	// vertices.
	bip := func(pendants int) *Graph {
		b := NewBuilder(2*d + 3*pendants)
		for u := range d {
			for v := d; v < 2*d; v++ {
				join(b, u, v)
			}
		}
		for p := range pendants {
			at := 2*d + 3*p
			join(b, rng.IntN(2*d+3*p), at)
			join(b, at, at+1)
			join(b, at+1, at+2)
		}
		return b.Graph()
	}
	// behind: a path of 20 from vertex 0 to a K_{d+1} on the highest IDs,
	// with random pendant trees hung on the path.
	b = NewBuilder(20 + d + 1 + 10)
	for v := 1; v < 20; v++ {
		join(b, v-1, v)
	}
	for u := 20; u <= 20+d; u++ {
		for v := u + 1; v <= 20+d; v++ {
			join(b, u, v)
		}
	}
	join(b, 19, 20+rng.IntN(d+1))
	for v := 21 + d; v < 31+d; v++ {
		join(b, v, rng.IntN(20))
	}
	behind := b.Graph()
	// ring: six K_{d+1}s, each joined to the next by one edge.
	b = NewBuilder(6 * (d + 1))
	for c := range 6 {
		for u := c * (d + 1); u < (c+1)*(d+1); u++ {
			for v := u + 1; v < (c+1)*(d+1); v++ {
				join(b, u, v)
			}
		}
		join(b, c*(d+1), ((c+1)%6)*(d+1)+1)
	}
	ring := b.Graph()
	// power: the (⌈d/2⌉)-th power of a cycle of 40, degree ≥ d.
	b = NewBuilder(40)
	for v := range 40 {
		for j := 1; j <= (d+1)/2; j++ {
			join(b, v, (v+j)%40)
		}
	}
	return []*Graph{sparse, bip(0), bip(5), behind, complete(d + 1), ring, b.Graph()}
}

// TestFindCliqueMatchesReference checks FindCliqueDPlus1 against the old
// two-pass search for d = 1..8 on random graphs, planted cliques, graphs
// of degeneracy above d, coreCases and regularCases: the same clique in
// the same order, or nil for both. The cases must reach the
// later-neighborhood-bigger-than-d search, an empty d-core, non-empty ones
// with and without a clique under a vertex of degree < d, a graph of
// minimum degree ≥ d, d-regular cores with and without a K_{d+1}, and an
// irregular core whose K_{d+1} is no vertex's whole neighbourhood. On
// every case the peel's d-core size must equal refCoreSize's.
func TestFindCliqueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	big, empty, peeled, foundPeeled, whole := 0, 0, 0, 0, 0
	gs := degeneracyCases(rng)
	for d := 1; d <= 8; d++ {
		gs = append(gs, coreCases(rng, d)...)
	}
	for d := 2; d <= 6; d++ {
		gs = append(gs, regularCases(rng, d)...)
	}
	regularNil, regularFound, irregularFound := 0, 0, 0
	for i, g := range gs {
		for d := 1; d <= 8; d++ {
			got := g.FindCliqueDPlus1(d)
			want, bigLater := refFindCliqueDPlus1(g, d)
			if !slices.Equal(got, want) {
				t.Fatalf("case %d (n=%d, m=%d), d=%d: got %v, reference %v", i, g.N(), g.M(), d, got, want)
			}
			if bigLater {
				big++
			}
			if _, regular := refCore(g, d); regular && want == nil {
				regularNil++
			} else if regular {
				regularFound++
			} else if want != nil && !hasCliqueNeighbourhood(g, want) {
				irregularFound++
			}
			if g.MinDegree() >= d {
				whole++
				continue
			}
			core, wantCore := new(smallestLast).coreSize(g, d), refCoreSize(g, d)
			if core != wantCore {
				t.Fatalf("case %d (n=%d, m=%d), d=%d: peel left a %d-vertex core, reference %d", i, g.N(), g.M(), d, core, wantCore)
			}
			switch {
			case core == 0:
				empty++
			case want != nil:
				foundPeeled++
			default:
				peeled++
			}
		}
	}
	if big == 0 || empty == 0 || peeled == 0 || foundPeeled == 0 || whole == 0 {
		t.Fatalf("%d cliques through a later neighborhood bigger than d; %d empty cores; under a vertex of degree < d, %d non-empty cores without a clique and %d with one; %d graphs of minimum degree ≥ d; want all > 0",
			big, empty, peeled, foundPeeled, whole)
	}
	if regularNil == 0 || regularFound == 0 || irregularFound == 0 {
		t.Fatalf("d-regular cores without a K_{d+1}: %d, with one: %d; irregular cores whose K_{d+1} is no vertex's neighbourhood: %d; want all > 0",
			regularNil, regularFound, irregularFound)
	}
}

// hasCliqueNeighbourhood reports whether some vertex of clique has the
// rest of it for its whole neighbourhood.
func hasCliqueNeighbourhood(g *Graph, clique []int) bool {
	return slices.ContainsFunc(clique, func(v int) bool { return g.Degree(v) == len(clique)-1 })
}

// sparseGraph is a random connected graph on n vertices: each vertex
// joins up to three earlier ones.
func sparseGraph(n int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 21))
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		for range 3 {
			b.AddEdgeOK(v, rng.IntN(v))
		}
	}
	return b.Graph()
}

// allocBytes returns the bytes a warm call to fn allocates, as the
// TotalAlloc delta of a second call after a first.
func allocBytes(fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFindCliqueAllocatesLittle checks that a clique search over a whole
// n=1e5 graph keeps only its packed per-vertex state: under 2 MiB. The
// graph is bipartite, so no triangle stops the search early at d=2, and it
// has isolated vertices and a non-empty 2-core, so the search peels and
// then eliminates on the peel's two arrays and a third.
func TestFindCliqueAllocatesLittle(t *testing.T) {
	n := 100000
	b := NewBuilder(n)
	rng := rand.New(rand.NewPCG(21, 3))
	for v := 1; v < n; v += 2 {
		for range 3 {
			b.AddEdgeOK(v, 2*rng.IntN(n/2))
		}
	}
	g := b.Graph()
	if g.MinDegree() >= 2 || new(smallestLast).coreSize(g, 2) == 0 {
		t.Fatal("the graph does not peel to a non-empty 2-core")
	}
	var clique []int
	got := allocBytes(func() { clique = g.FindCliqueDPlus1(2) })
	if clique != nil {
		t.Fatalf("bipartite graph has a triangle %v", clique)
	}
	if got >= 2<<20 {
		t.Fatalf("FindCliqueDPlus1 on n=%d allocated %d bytes, want < 2 MiB", n, got)
	}
}

// TestInducedIntoWarmAllocatesNothing checks that carving into a warm
// InducedBuf reuses its arrays and its graph header: no allocation at all.
func TestInducedIntoWarmAllocatesNothing(t *testing.T) {
	g := sparseGraph(100000, 4)
	verts := g.Ball(17, 3, nil)
	var buf InducedBuf
	tr := new(Traversal).Bind(g)
	for _, vs := range [][]int{verts, verts[:len(verts)/2]} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := tr.InducedInto(&buf, vs); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("warm InducedInto of %d vertices: %v allocs per run, want 0", len(vs), allocs)
		}
	}
}

// TestInducedIntoHeaderCachesRestart checks that a reused header forgets
// the degeneracy and mirror of the subgraph before it.
func TestInducedIntoHeaderCachesRestart(t *testing.T) {
	g := sparseGraph(200, 5)
	var buf InducedBuf
	tr := new(Traversal).Bind(g)
	for i, verts := range [][]int{g.Ball(0, 2, nil), g.Ball(50, 1, nil), g.Ball(0, 2, nil)} {
		got, err := tr.InducedInto(&buf, verts)
		if err != nil {
			t.Fatal(err)
		}
		if got.HasMirror() {
			t.Fatalf("subgraph %d: mirror left from the previous subgraph", i)
		}
		want, _, err := g.Induced(verts)
		if err != nil {
			t.Fatal(err)
		}
		gd, wd := got.DegeneracyOrder(), want.DegeneracyOrder()
		if gd.Degeneracy != wd.Degeneracy || !slices.Equal(gd.Order, wd.Order) ||
			!slices.Equal(got.Mirror(), want.Mirror()) {
			t.Fatalf("subgraph %d: cached degeneracy or mirror differs from a fresh Induced", i)
		}
	}
}
