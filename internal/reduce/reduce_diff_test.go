package reduce

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// primesUpTo returns the primes up to limit via a sieve.
func primesUpTo(limit int) []int {
	if limit < 2 {
		return nil
	}
	sieve := make([]bool, limit+1)
	var out []int
	for p := 2; p <= limit; p++ {
		if !sieve[p] {
			out = append(out, p)
			for q := p * p; q <= limit; q += p {
				sieve[q] = true
			}
		}
	}
	return out
}

// refLinialPrime is linialPrime as it was written over a sieve: the first
// prime q > d·t among the primes up to a limit, with the limit doubled
// (and the sieve rebuilt) until one qualifies.
func refLinialPrime(k, d int) (int, int) {
	limit := 4 * (d + 2) * (bits.Len(uint(k)) + 2)
	for {
		for _, q := range primesUpTo(limit) {
			t := 1
			pow := q
			for pow < k {
				pow *= q
				t++
			}
			if q > d*t {
				return q, t
			}
		}
		limit *= 2
	}
}

// TestLinialPrimeMatchesSieve checks the trial-division scan against the
// sieve version for every d ≤ 64 at palettes k ≤ 2³¹: small k, powers of
// two and their neighbours, and random k.
func TestLinialPrimeMatchesSieve(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 3))
	ks := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 49, 100, 1000, 4096, 1e5, 1e6, math.MaxInt32, 1 << 31}
	for e := 2; e < 31; e++ {
		ks = append(ks, 1<<e-1, 1<<e+1)
	}
	for range 64 {
		ks = append(ks, 1+rng.IntN(1<<31))
	}
	for _, k := range ks {
		for d := 0; d <= 64; d++ {
			q, tt := linialPrime(k, d)
			wq, wt := refLinialPrime(k, d)
			if q != wq || tt != wt {
				t.Fatalf("k=%d d=%d: linialPrime (%d, %d), sieve (%d, %d)", k, d, q, tt, wq, wt)
			}
		}
	}
}

// digitsBaseQ returns the t base-q digits of c (little-endian), i.e. the
// coefficients of vertex c's polynomial.
func digitsBaseQ(c, q, t int) []int {
	out := make([]int, t)
	for i := 0; i < t; i++ {
		out[i] = c % q
		c /= q
	}
	return out
}

// evalPoly evaluates the polynomial with the given coefficients at x by
// Horner's rule with a plain % after every step: the reference for
// field.eval.
func evalPoly(coeffs []int, x, q int) int {
	val := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		val = (val*x + coeffs[i]) % q
	}
	return val
}

// TestFieldExact checks the multiply-shift field against plain / and %:
// quotient and remainder for every prime q with q² < 2³¹ at edge and
// random operands below 2³¹, and polynomial evaluation against evalPoly at
// random points for the (q, t) that linialPrime picks for
// k ∈ {2³¹−1, 10⁶, 10⁵, 4096} and d ≤ 64.
func TestFieldExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	for _, q := range primesUpTo(46340) { // 46340² < 2³¹ < 46341²
		f := newField(q)
		cs := []int{0, 1, q - 1, q, q + 1, q*q - 1, q * q, math.MaxInt32}
		for range 64 {
			cs = append(cs, rng.IntN(math.MaxInt32+1))
		}
		for _, c := range cs {
			if quo, rem := f.divmod(uint64(c)); int(quo) != c/q || int(rem) != c%q {
				t.Fatalf("q=%d c=%d: divmod %d, %d, want %d, %d", q, c, quo, rem, c/q, c%q)
			}
		}
	}
	var buf [32]uint64
	for _, k := range []int{math.MaxInt32, 1e6, 1e5, 4096} {
		for d := 1; d <= 64; d++ {
			q, tt := linialPrime(k, d)
			f := newField(q)
			for trial := range 64 {
				c, x := rng.IntN(k), rng.IntN(q)
				switch trial {
				case 0:
					c = k - 1
				case 1:
					x = 0
				}
				got := f.eval(uint64(c), f.powers(buf[:tt], uint64(x)))
				if want := evalPoly(digitsBaseQ(c, q, tt), x, q); int(got) != want {
					t.Fatalf("k=%d d=%d (q=%d, t=%d): p_%d(%d) = %d, want %d", k, d, q, tt, c, x, got, want)
				}
			}
		}
	}
}

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

// checkAgainstReference runs LinialColor and DegPlusOne on ws over the list
// form of mask and the reference copies on the mask, and fails unless
// classes, palettes and charged rounds (per phase) agree at every listed
// vertex.
func checkAgainstReference(t *testing.T, name string, ws *Workspace, nw *local.Network, mask []bool) {
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
	colors, k := ws.LinialColor(nw, &got, "linial", verts)
	refColors, refK := referenceLinialColor(nw, &want, "linial", mask)
	if k != refK || len(colors) != len(all) {
		t.Fatalf("%s: Linial palette %d over %d classes, reference %d over %d vertices", name, k, len(colors), refK, len(all))
	}
	for i, v := range all {
		if colors[i] != refColors[v] {
			t.Fatalf("%s: Linial class of %d is %d, reference %d", name, v, colors[i], refColors[v])
		}
	}
	classes := ws.DegPlusOne(nw, &got, "dp1", verts)
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
// with shuffled IDs, all on one held workspace.
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
	var ws Workspace
	for _, tc := range graphs {
		nw := local.NewShuffledNetwork(tc.g, rng)
		checkAgainstReference(t, tc.name+"/nil", &ws, nw, nil)
		for _, p := range []float64{0.02, 0.3, 0.7, 1} {
			for trial := 0; trial < 3; trial++ {
				mask := make([]bool, tc.g.N())
				for v := range mask {
					mask[v] = rng.Float64() < p
				}
				checkAgainstReference(t, tc.name, &ws, nw, mask)
			}
		}
	}
}

// TestDegPlusOneReductionOnWidePalettes holds the class reduction's
// one-word palette to the reference on trees of maximum degree 62 to 130,
// around the 64 colors one word holds: stars joined leaf to hub into a
// path, whose leaves keep random distinct colors of [0, Δ] and whose hubs,
// colored above Δ, each take the least color their leaves leave free.
// The hubs' picks must straddle 63 and 64.
func TestDegPlusOneReductionOnWidePalettes(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 4))
	var ws Workspace
	picks := map[bool]int{}
	for _, maxDeg := range []int{62, 63, 64, 65, 100, 130} {
		for trial := range 4 {
			const hubs = 6
			// Star h is a hub and deg−1 leaves; the hubs after the first
			// join the first leaf of the star before, degree deg.
			degs := make([]int, hubs)
			n := 0
			for h := range degs {
				degs[h] = maxDeg - rng.IntN(3)*min(h, 1)
				n += degs[h]
			}
			b := graph.NewBuilder(n)
			colors := make([]int, 0, n)
			hubOf := make([]int, hubs)
			for h, deg := range degs {
				hub := len(colors)
				hubOf[h] = hub
				colors = append(colors, maxDeg+1+h)
				colors = append(colors, rng.Perm(maxDeg + 1)[:deg-1]...)
				for leaf := hub + 1; leaf < len(colors); leaf++ {
					b.AddEdgeOK(hub, leaf)
				}
				if h > 0 {
					b.AddEdgeOK(hub, hubOf[h-1]+1)
				}
			}
			g := b.Graph()
			nw := local.NewShuffledNetwork(g, rng)
			k := maxDeg + 1 + hubs
			var got, want local.Ledger
			out := ws.ReduceToMaxDegPlusOne(nw, &got, "r", nil, colors, k)
			ref := referenceReduce(nw, &want, "r", nil, colors, k)
			name := fmt.Sprintf("Δ=%d trial %d", g.MaxDegree(), trial)
			if !slices.Equal(out, ref) || !slices.Equal(got.Phases(), want.Phases()) {
				t.Fatalf("%s: reduced classes differ from the reference", name)
			}
			for _, hub := range hubOf {
				picks[out[hub] >= 64]++
			}
		}
	}
	if picks[false] == 0 || picks[true] == 0 {
		t.Fatalf("hub picks below 64: %d, at or above: %d; want both > 0", picks[false], picks[true])
	}
}

// refGatherSweep is the Linial sweep as it was before the x = 0 test moved
// into it: every vertex of verts gathers the colors of its neighbors in
// the member set, in adjacency order, and calls linialStep from x = 0.
// colors is vertex-indexed.
func refGatherSweep(g *graph.Graph, verts []int, member []bool, colors []int, f field, t int) []int {
	out := make([]int, len(verts))
	for i, v := range verts {
		var nbrs []int
		for _, w := range g.Neighbors(v) {
			if member[w] {
				nbrs = append(nbrs, colors[w])
			}
		}
		out[i] = linialStep(colors[v], nbrs, f, t, 0)
	}
	return out
}

// refListLinial is LinialColor with refGatherSweep for its sweep. It
// returns the colors aligned with verts, the palette, and how many of its
// vertex steps went past x = 0 (a new color ≥ q) out of how many.
func refListLinial(nw *local.Network, ledger *local.Ledger, phase string, verts []int) (out []int, k, clashes, steps int) {
	g := nw.G
	member := make([]bool, g.N())
	for _, v := range verts {
		member[v] = true
	}
	d := 0
	for _, v := range verts {
		d = max(d, g.DegreeInMask(v, member))
	}
	out = make([]int, len(verts))
	if d == 0 {
		return out, 1, 0, 0
	}
	colors := make([]int, g.N())
	for _, v := range verts {
		colors[v] = nw.ID[v] - 1
	}
	k = g.N()
	for {
		q, t := linialPrime(k, d)
		if q*q >= k {
			for i, v := range verts {
				out[i] = colors[v]
			}
			return out, k, clashes, steps
		}
		next := refGatherSweep(g, verts, member, colors, newField(q), t)
		for i, v := range verts {
			colors[v] = next[i]
			if next[i] >= q {
				clashes++
			}
		}
		steps += len(verts)
		k = q * q
		if ledger != nil {
			ledger.Charge(phase, 1)
		}
	}
}

// shuffledSublist returns about a fraction p of g's vertices of degree at
// most maxDeg, in random order.
func shuffledSublist(g *graph.Graph, maxDeg int, p float64, rng *rand.Rand) []int {
	var verts []int
	for _, v := range rng.Perm(g.N()) {
		if g.Degree(v) <= maxDeg && rng.Float64() < p {
			verts = append(verts, v)
		}
	}
	return verts
}

// TestLinialResidueFirstMatchesGatherSweep holds LinialColor and
// DegPlusOne, whose sweep settles x = 0 on the member records, to
// refListLinial, which gathers every vertex's neighbor colors for the
// general step: colors, palettes and charges, with shuffled IDs, over all
// vertices and over shuffled sublists, on one held workspace (on the
// Apollonian graph, its vertices of degree ≤ 6, as gps7's first layer).
// The 8-regular graph has q = 29 against 8 neighbors, so that at least 10%
// of its steps clash at x = 0 and take the general step.
func TestLinialResidueFirstMatchesGatherSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 5))
	regular3, err := gen.RandomRegular(1500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	regular8, err := gen.RandomRegular(1000, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name   string
		g      *graph.Graph
		maxDeg int
	}{
		{"gnp", gen.GNP(1200, 8.0/1200, rng), 1200},
		{"apollonian", gen.Apollonian(1500, rng), 6},
		{"regular3", regular3, 3},
		{"regular8", regular8, 8},
	}
	var ws Workspace
	for _, tc := range graphs {
		nw := local.NewShuffledNetwork(tc.g, rng)
		clashes, steps := 0, 0
		for _, p := range []float64{1, 0.7, 0.3} {
			verts := shuffledSublist(tc.g, tc.maxDeg, p, rng)
			var got, want local.Ledger
			colors, k := ws.LinialColor(nw, &got, "linial", verts)
			refColors, refK, c, n := refListLinial(nw, &want, "linial", verts)
			clashes, steps = clashes+c, steps+n
			if k != refK || !slices.Equal(colors, refColors) {
				t.Fatalf("%s p=%v: Linial palette %d colors %v, reference %d %v", tc.name, p, k, colors, refK, refColors)
			}
			classes := ws.DegPlusOne(nw, &got, "dp1", verts)
			refLin, refLinK, _, _ := refListLinial(nw, &want, "dp1/linial", verts)
			refClasses := new(Workspace).ReduceToMaxDegPlusOne(nw, &want, "dp1/reduce", verts, refLin, refLinK)
			if !slices.Equal(classes, refClasses) {
				t.Fatalf("%s p=%v: Δ+1 classes %v, reference %v", tc.name, p, classes, refClasses)
			}
			if !slices.Equal(got.Phases(), want.Phases()) {
				t.Fatalf("%s p=%v: charged %v, reference %v", tc.name, p, got.Phases(), want.Phases())
			}
		}
		if steps == 0 || clashes == 0 {
			t.Fatalf("%s: %d of %d steps clashed at x = 0, want some of some", tc.name, clashes, steps)
		}
		if tc.name == "regular8" && 10*clashes < steps {
			t.Fatalf("%s: %d of %d steps clashed at x = 0, want ≥ 10%%", tc.name, clashes, steps)
		}
	}
}

// TestLinialSweepOnImproperColors runs one sweep over colors that are
// not a proper coloring, a quarter of the edges given one color at both
// ends, against refGatherSweep: linialStep skips a neighbor of the
// vertex's own color, and the sweep's x = 0 test must skip it too, or a
// vertex whose only match is such a neighbor leaves x = 0 for the general
// step, which starts at x = 1.
func TestLinialSweepOnImproperColors(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 6))
	regular, err := gen.RandomRegular(2000, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := regular
	var ws Workspace
	for _, p := range []float64{1, 0.6} {
		verts := shuffledSublist(g, 5, p, rng)
		d := ws.begin(g, verts)
		member := make([]bool, g.N())
		for _, v := range verts {
			member[v] = true
		}
		k := g.N()
		colors := make([]int, g.N())
		for _, v := range verts {
			colors[v] = rng.IntN(k)
		}
		shared := 0
		for _, v := range verts {
			for _, w := range g.Neighbors(v) {
				if member[w] && int(w) < v && rng.IntN(4) == 0 {
					colors[v] = colors[w]
					shared++
				}
			}
		}
		for _, v := range verts {
			ws.rec[v].color = int32(colors[v])
		}
		q, tt := linialPrime(k, d)
		out := make([]int, len(verts))
		ws.sweep(g, verts, out, newField(q), tt)
		if want := refGatherSweep(g, verts, member, colors, newField(q), tt); !slices.Equal(out, want) {
			t.Fatalf("p=%v: sweep %v, reference %v", p, out, want)
		}
		if shared == 0 {
			t.Fatalf("p=%v: no edge shares a color", p)
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
	checkAgainstReference(t, "apollonian1e5/100", new(Workspace), nw, mask)
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

// TestDegPlusOneAllocatesPerList checks that a warm DegPlusOne over a
// 100-vertex list in an n=1e5 graph, on a held workspace, allocates for the
// list, not for the graph: under 64 KiB, where n-wide scratch would take
// megabytes.
func TestDegPlusOneAllocatesPerList(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 9))
	g := gen.Apollonian(100000, rng)
	nw := local.NewShuffledNetwork(g, rng)
	verts := listOf(smallMask(g, rng))
	var ws Workspace
	if got := allocBytes(func() { ws.DegPlusOne(nw, nil, "", verts) }); got >= 64<<10 {
		t.Fatalf("DegPlusOne over %d of %d vertices allocated %d bytes, want < 64 KiB", len(verts), g.N(), got)
	}
}

// BenchmarkDegPlusOne times the (Δ+1)-class schedule in two layer shapes:
// every vertex of a 3-regular graph (an extension on color-sparse) and the
// degree-≤6 vertices of an Apollonian graph, both at n=1e5 with shuffled
// IDs, each on one held workspace, as its callers hold one per run. The
// linial case times LinialColor alone on the Apollonian list, which is how
// gps7 schedules its first layer.
func BenchmarkDegPlusOne(b *testing.B) {
	rng := rand.New(rand.NewPCG(19, 2))
	regular, err := gen.RandomRegular(100000, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	apollonian := gen.Apollonian(100000, rng)
	var low []int
	for v := range apollonian.N() {
		if apollonian.Degree(v) <= 6 {
			low = append(low, v)
		}
	}
	regNw := local.NewShuffledNetwork(regular, rng)
	apoNw := local.NewShuffledNetwork(apollonian, rng)
	cases := []struct {
		name       string
		nw         *local.Network
		verts      []int
		linialOnly bool
	}{
		{"regular3_n1e5", regNw, allIfNil(nil, regular.N()), false},
		{"apollonian_deg6_n1e5", apoNw, low, false},
		{"apollonian_deg6_linial_n1e5", apoNw, low, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var ws Workspace
			for b.Loop() {
				if tc.linialOnly {
					ws.LinialColor(tc.nw, nil, "", tc.verts)
				} else {
					ws.DegPlusOne(tc.nw, nil, "", tc.verts)
				}
			}
		})
	}
}
