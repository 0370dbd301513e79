package gps_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"distcolor/internal/be"
	"distcolor/internal/gen"
	"distcolor/internal/gps"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
)

// refPeelColor is PeelColor as it was written with per-layer vertex
// buckets, a peel list and per-class buckets that all grow by append, and a
// pooled Linial workspace and palette bitset (here a fresh workspace per
// layer and one bitset per call). It is the
// differential oracle for the flat PeelColor.
func refPeelColor(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string, k int) (*gps.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	if k < 0 {
		return nil, fmt.Errorf("gps: negative k")
	}
	layerOf := make([]int, n)
	for v := range layerOf {
		layerOf[v] = -1
	}
	alive := make([]bool, n)
	aliveCount := n
	for v := range alive {
		alive[v] = true
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	// aliveList holds the surviving vertices in ascending order; each layer
	// partitions it stably into peeled and survivors, so a layer only scans
	// the vertices still alive (not all n) and the peel order matches the
	// full ascending scan exactly.
	aliveList := make([]int, n)
	for v := range aliveList {
		aliveList[v] = v
	}
	var peel []int
	layers := 0
	for len(aliveList) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		layers++
		peel = peel[:0]
		survivors := aliveList[:0]
		for _, v := range aliveList {
			if deg[v] <= k {
				peel = append(peel, v)
			} else {
				survivors = append(survivors, v)
			}
		}
		if len(peel) == 0 {
			return nil, fmt.Errorf("gps: peeling stalled with %d vertices alive (degeneracy > %d)", aliveCount, k)
		}
		aliveList = survivors
		for _, v := range peel {
			layerOf[v] = layers
			alive[v] = false
			aliveCount--
		}
		for _, v := range peel {
			for _, w32 := range g.Neighbors(v) {
				if alive[w32] {
					deg[w32]--
				}
			}
		}
		if ledger != nil {
			ledger.Charge(phase+"/peel", 1)
		}
	}

	// Color layers from last to first. Layer membership is bucketized once
	// (ascending vertex order, as the per-layer full scans produced), and
	// the per-vertex forbidden set {0..k} is a bitset whose FirstZero
	// is exactly the old "first unused index" scan.
	colors := make([]int, n)
	for v := range colors {
		colors[v] = reduce.Uncolored
	}
	layerVerts := make([][]int, layers+1)
	for v := 0; v < n; v++ {
		layerVerts[layerOf[v]] = append(layerVerts[layerOf[v]], v)
	}
	used := graph.NewBitset(k + 1)
	for l := layers; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lv := layerVerts[l]
		// Within-layer schedule: Linial classes on the layer-induced graph.
		classes, palette := new(reduce.Workspace).LinialColor(nw, ledger, phase+"/linial", lv)
		buckets := make([][]int, palette)
		for i, v := range lv {
			buckets[classes[i]] = append(buckets[classes[i]], v)
		}
		for c := 0; c < palette; c++ {
			for _, v := range buckets[c] {
				// v has ≤ k neighbors in its own or later layers, all the
				// already-colored ones; pick a free color among {0..k}.
				used.Reset(k + 1)
				for _, w32 := range g.Neighbors(v) {
					w := int(w32)
					if colors[w] >= 0 && colors[w] <= k {
						used.Set(colors[w])
					}
				}
				picked := used.FirstZero()
				if picked > k {
					return nil, fmt.Errorf("gps: no free color at %d (layer %d)", v, l)
				}
				colors[v] = picked
			}
			if len(buckets[c]) > 0 && ledger != nil {
				ledger.Charge(phase+"/recolor", 1)
			}
		}
	}
	return &gps.Result{Colors: colors, Layers: layers}, nil
}

// peelCase is one PeelColor input: a network and the peeling threshold k.
type peelCase struct {
	name string
	nw   *local.Network
	k    int
}

// peelCases returns the oracle's inputs: Apollonian graphs from n=10 to
// 2·10⁴ at k=6, a 20×20 grid at k=2 (whose first layer is not its largest),
// random 3- and 4-regular graphs at k=d (one layer, the whole graph) and
// k=d−1 (a stall), unions of two forests at the Barenboim–Elkin threshold,
// K6 at k=3 (a stall), the empty graph, and K_{k+1} and a random graph of
// degeneracy ≤ k at k ∈ {6, 63, 64, 70}, palettes on either side of one
// 64-bit word, all with shuffled IDs.
func peelCases(t *testing.T) []peelCase {
	t.Helper()
	rng := rand.New(rand.NewPCG(26, 1))
	var cases []peelCase
	add := func(name string, g *graph.Graph, k int) {
		cases = append(cases, peelCase{name, local.NewShuffledNetwork(g, rng), k})
	}
	for _, n := range []int{10, 100, 1000, 20000} {
		add(fmt.Sprintf("apollonian%d", n), gen.Apollonian(n, rng), 6)
	}
	add("grid20x20", gen.Grid(20, 20), 2)
	for _, d := range []int{3, 4} {
		g, err := gen.RandomRegular(2000, d, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("regular%d", d), g, d)
		add(fmt.Sprintf("regular%d/stall", d), g, d-1)
	}
	for _, a := range []int{1, 2, 3} {
		add(fmt.Sprintf("forests%d", a), gen.ForestUnion(5000, a, rng), be.Threshold(a, 0.5))
	}
	add("K6", gen.Complete(6), 3)
	add("empty", graph.MustNew(0, nil), 6)
	// Palettes on either side of one 64-bit word: K_{k+1} uses all of
	// {0..k}, and a random graph of degeneracy ≤ k leaves vertices whose
	// colored neighbors straddle colors 63 and 64.
	for _, k := range []int{6, 63, 64, 70} {
		add(fmt.Sprintf("K%d", k+1), gen.Complete(k+1), k)
		add(fmt.Sprintf("degenerate%d", k), degenerate(600, k, rng), k)
	}
	return cases
}

// degenerate is a random graph on n vertices in which each vertex joins
// up to k earlier ones, so that peeling at k exhausts it.
func degenerate(n, k int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		for _, u := range rng.Perm(v)[:min(v, k)] {
			b.AddEdgeOK(v, u)
		}
	}
	return b.Graph()
}

// TestPeelColorMatchesReference checks the flat PeelColor against
// refPeelColor: the same colors, layer count, charge sequence and error
// text, with a nil ledger and with a ledger.
func TestPeelColorMatchesReference(t *testing.T) {
	for _, tc := range peelCases(t) {
		for _, traced := range []bool{false, true} {
			var got, want *local.Ledger
			if traced {
				got, want = &local.Ledger{}, &local.Ledger{}
			}
			res, err := gps.PeelColor(context.Background(), tc.nw, got, "t", tc.k)
			ref, refErr := refPeelColor(context.Background(), tc.nw, want, "t", tc.k)
			name := fmt.Sprintf("%s k=%d ledger=%v", tc.name, tc.k, traced)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: error %v, reference %v", name, err, refErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(res.Colors, ref.Colors) || res.Layers != ref.Layers {
				t.Fatalf("%s: %d layers and colors differ from the reference's %d layers", name, res.Layers, ref.Layers)
			}
			if traced && !slices.Equal(got.Phases(), want.Phases()) {
				t.Fatalf("%s: charged %v, reference %v", name, got.Phases(), want.Phases())
			}
		}
	}
}

// TestPeelColorConcurrent runs Planar7 from several goroutines on one
// shared network, as a server does on a resident graph, and checks every
// run against a serial one.
func TestPeelColorConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 2))
	nw := local.NewShuffledNetwork(gen.Apollonian(3000, rng), rng)
	want, err := gps.Planar7(context.Background(), nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				var ledger local.Ledger
				res, err := gps.Planar7(context.Background(), nw, &ledger)
				if err == nil && (!slices.Equal(res.Colors, want.Colors) || res.Layers != want.Layers) {
					err = fmt.Errorf("run differs from the serial one")
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}
