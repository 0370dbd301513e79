package reduce

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// referenceLinialColor is LinialColor as it was written over masks: every
// step scans all n vertices and allocates n·t digits and an n-wide next
// array, returning n-wide colors. It is the differential oracle for the
// list-shaped LinialColor.
func referenceLinialColor(nw *local.Network, ledger *local.Ledger, phase string, mask []bool) ([]int, int) {
	g := nw.G
	n := g.N()
	em := referenceMaskOrAll(mask, n)
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = nw.ID[v] - 1
	}
	k := n
	d := 0
	for v := 0; v < n; v++ {
		if em[v] {
			d = max(d, g.DegreeInMask(v, em))
		}
	}
	if d == 0 {
		clear(colors)
		return colors, 1
	}
	for {
		q, t := linialPrime(k, d)
		if q*q >= k {
			return colors, k
		}
		digits := make([]int, n*t)
		for v := 0; v < n; v++ {
			if !em[v] {
				continue
			}
			c := colors[v]
			for i := 0; i < t; i++ {
				digits[v*t+i] = c % q
				c /= q
			}
		}
		next := slices.Clone(colors)
		for v := 0; v < n; v++ {
			if !em[v] {
				continue
			}
			pv := digits[v*t : (v+1)*t]
			x := -1
			for cand := 0; cand < q && x < 0; cand++ {
				ev := evalPoly(pv, cand, q)
				ok := true
				for _, w32 := range g.Neighbors(v) {
					w := int(w32)
					if em[w] && colors[w] != colors[v] && evalPoly(digits[w*t:(w+1)*t], cand, q) == ev {
						ok = false
						break
					}
				}
				if ok {
					x = cand
				}
			}
			next[v] = x*q + evalPoly(pv, x, q)
		}
		colors = next
		k = q * q
		if ledger != nil {
			ledger.Charge(phase, 1)
		}
	}
}

// referenceReduce is ReduceToMaxDegPlusOne as it was written over masks:
// n-wide colors in and out, the recoloring classes bucketed by one
// ascending scan of all n vertices.
func referenceReduce(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, colors []int, k int) []int {
	g := nw.G
	n := g.N()
	em := referenceMaskOrAll(mask, n)
	d := 0
	for v := 0; v < n; v++ {
		if em[v] {
			d = max(d, g.DegreeInMask(v, em))
		}
	}
	out := slices.Clone(colors)
	buckets := make([][]int, max(k, 0))
	for v := 0; v < n; v++ {
		if em[v] && out[v] >= d+1 && out[v] < k {
			buckets[out[v]] = append(buckets[out[v]], v)
		}
	}
	rounds := 0
	for c := k - 1; c >= d+1; c-- {
		for _, v := range buckets[c] {
			used := make([]bool, d+1)
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if em[w] && out[w] >= 0 && out[w] <= d {
					used[out[w]] = true
				}
			}
			out[v] = slices.Index(used, false)
		}
		rounds++
	}
	if ledger != nil && rounds > 0 {
		ledger.Charge(phase, rounds)
	}
	return out
}

func referenceMaskOrAll(mask []bool, n int) []bool {
	if mask != nil {
		return mask
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	return all
}

// listOf returns the ascending vertex list of mask (nil for a nil mask).
func listOf(mask []bool) []int {
	if mask == nil {
		return nil
	}
	verts := []int{}
	for v, in := range mask {
		if in {
			verts = append(verts, v)
		}
	}
	return verts
}

// checkAgainstReference runs LinialColor and DegPlusOne on the list form of
// mask and the reference copies on the mask, and fails unless classes,
// palettes and charged rounds (per phase) agree at every listed vertex.
func checkAgainstReference(t *testing.T, name string, nw *local.Network, mask []bool) {
	t.Helper()
	verts := listOf(mask)
	all := verts
	if all == nil {
		all = make([]int, nw.G.N())
		for v := range all {
			all[v] = v
		}
	}
	var got, want local.Ledger
	colors, k := LinialColor(nw, &got, "linial", verts)
	refColors, refK := referenceLinialColor(nw, &want, "linial", mask)
	if k != refK || len(colors) != len(all) {
		t.Fatalf("%s: Linial palette %d over %d classes, reference %d over %d vertices", name, k, len(colors), refK, len(all))
	}
	for i, v := range all {
		if colors[i] != refColors[v] {
			t.Fatalf("%s: Linial class of %d is %d, reference %d", name, v, colors[i], refColors[v])
		}
	}
	classes := DegPlusOne(nw, &got, "dp1", verts)
	refLin, refLinK := referenceLinialColor(nw, &want, "dp1/linial", mask)
	refClasses := referenceReduce(nw, &want, "dp1/reduce", mask, refLin, refLinK)
	for i, v := range all {
		if classes[i] != refClasses[v] {
			t.Fatalf("%s: Δ+1 class of %d is %d, reference %d", name, v, classes[i], refClasses[v])
		}
	}
	if !slices.Equal(got.Phases(), want.Phases()) {
		t.Fatalf("%s: charged %v, reference %v", name, got.Phases(), want.Phases())
	}
}

// TestLinialMatchesReference checks the list-shaped LinialColor and
// DegPlusOne against the n-scan originals on GNP, Apollonian, grid and
// 3-regular graphs under random masks of several densities and a nil mask,
// with shuffled IDs.
func TestLinialMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	regular, err := gen.RandomRegular(1500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(1200, 8.0/1200, rng)},
		{"apollonian", gen.Apollonian(1500, rng)},
		{"grid", gen.Grid(40, 45)},
		{"regular3", regular},
	}
	for _, tc := range graphs {
		nw := local.NewShuffledNetwork(tc.g, rng)
		checkAgainstReference(t, tc.name+"/nil", nw, nil)
		for _, p := range []float64{0.02, 0.3, 0.7, 1} {
			for trial := 0; trial < 3; trial++ {
				mask := make([]bool, tc.g.N())
				for v := range mask {
					mask[v] = rng.Float64() < p
				}
				checkAgainstReference(t, tc.name, nw, mask)
			}
		}
	}
}

// TestLinialSmallListInLargeGraph checks a 100-vertex list, a connected
// patch plus scattered vertices, inside an n=1e5 graph, where the IDs (and
// so the starting palette) are those of the whole graph.
func TestLinialSmallListInLargeGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	g := gen.Apollonian(100000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	mask := smallMask(g, rng)
	checkAgainstReference(t, "apollonian1e5/100", nw, mask)
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
// TotalAlloc delta of a second call after a first. It runs on one P with
// the collector off, so the second call finds the pooled scratch the first
// one filled: a per-P pool cache cannot miss and no GC can drop it.
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

// TestDegPlusOneAllocatesPerList checks that a warm DegPlusOne over a
// 100-vertex list in an n=1e5 graph allocates for the list, not for the
// graph: under 64 KiB, where n-wide scratch would take megabytes.
func TestDegPlusOneAllocatesPerList(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	rng := rand.New(rand.NewPCG(18, 9))
	g := gen.Apollonian(100000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	verts := listOf(smallMask(g, rng))
	if got := allocBytes(func() { DegPlusOne(nw, nil, "", verts) }); got >= 64<<10 {
		t.Fatalf("DegPlusOne over %d of %d vertices allocated %d bytes, want < 64 KiB", len(verts), g.N(), got)
	}
}
