package graph

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
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

// TestFindCliqueMatchesReference checks FindCliqueDPlus1 against the old
// two-pass search for d = 1..8 on random graphs, planted cliques and graphs
// of degeneracy above d: the same clique in the same order, or nil for
// both. The cases must reach the later-neighborhood-bigger-than-d search.
func TestFindCliqueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	found, big := 0, 0
	for i, g := range degeneracyCases(rng) {
		for d := 1; d <= 8; d++ {
			got := g.FindCliqueDPlus1(d)
			want, bigLater := refFindCliqueDPlus1(g, d)
			if !slices.Equal(got, want) {
				t.Fatalf("case %d (n=%d, m=%d), d=%d: got %v, reference %v", i, g.N(), g.M(), d, got, want)
			}
			if want != nil {
				found++
			}
			if bigLater {
				big++
			}
		}
	}
	if found == 0 || big == 0 {
		t.Fatalf("cases found %d cliques, %d through a later neighborhood bigger than d; want both > 0", found, big)
	}
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

// allocBytes returns the bytes a warm call to fn allocates, measured on
// one P with the collector off.
func allocBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFindCliqueAllocatesLittle checks that a clique search over a whole
// n=1e5 graph keeps only its packed per-vertex state: under 2 MiB. The
// graph is bipartite, so no triangle stops the search early at d=2.
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
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := sparseGraph(100000, 4)
	verts := g.Ball(17, 3, nil)
	var buf InducedBuf
	for _, vs := range [][]int{verts, verts[:len(verts)/2]} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.InducedInto(&buf, vs); err != nil {
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
	for i, verts := range [][]int{g.Ball(0, 2, nil), g.Ball(50, 1, nil), g.Ball(0, 2, nil)} {
		got, err := g.InducedInto(&buf, verts)
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
