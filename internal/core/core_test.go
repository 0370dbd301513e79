package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"distcolor/internal/density"
	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// randomLists builds per-vertex lists of exactly size k from a larger
// palette — the list-coloring setting of Theorem 1.3.
func randomLists(n, k, palette int, rng *rand.Rand) [][]int {
	lists := make([][]int, n)
	for v := range lists {
		perm := rng.Perm(palette)
		lists[v] = perm[:k]
	}
	return lists
}

func mustRun(t *testing.T, g *graph.Graph, cfg Config, rng *rand.Rand) *Result {
	t.Helper()
	nw := local.NewShuffledNetwork(g, rng)
	res, err := Run(context.Background(), nw, cfg)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	if res.Clique != nil {
		t.Fatalf("unexpected clique: %v", res.Clique)
	}
	if err := seqcolor.Verify(g, res.Colors, res.Lists); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
	return res
}

func TestRunPlanar6Apollonian(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{3, 10, 80, 400} {
		g := gen.Apollonian(n, rng)
		res := mustRun(t, g, Config{D: 6}, rng)
		if k := seqcolor.NumColors(res.Colors); k > 6 {
			t.Errorf("n=%d: %d colors > 6", n, k)
		}
	}
}

func TestRunPlanar6WithRandomLists(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Apollonian(200, rng)
	lists := randomLists(g.N(), 6, 14, rng)
	mustRun(t, g, Config{D: 6, Lists: seqcolor.Given(lists)}, rng)
}

func TestRunGridTriangleFree4(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := gen.Grid(15, 15)
	lists := randomLists(g.N(), 4, 9, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := TriangleFree4(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestRunGirth6Planar3(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	// subdivide a planar triangulation once: girth 6, planar
	base := gen.Apollonian(60, rng)
	g := gen.Subdivide(base, 1)
	if girth := g.Girth(nil); girth < 6 {
		t.Fatalf("subdivided girth=%d < 6", girth)
	}
	if !density.MadAtMost(g, 3) {
		t.Fatal("girth-6 planar graph should have mad < 3")
	}
	lists := randomLists(g.N(), 3, 7, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := Girth6Planar3(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestRunRegularBrooksHeavy(t *testing.T) {
	// d-regular graphs have mad = d and (whp, checked) no K_{d+1}: the
	// hardest Theorem 1.3 regime — no low-degree witnesses at iteration 1.
	rng := rand.New(rand.NewPCG(5, 5))
	for _, d := range []int{3, 4, 5} {
		g, err := gen.RandomRegular(60, d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.FindCliqueDPlus1(d) != nil {
			continue // rare; skip the degenerate sample
		}
		lists := randomLists(g.N(), d, 2*d+3, rng)
		res := mustRun(t, g, Config{D: d, Lists: seqcolor.Given(lists)}, rng)
		if res.Iterations[0].Rich != g.N() {
			t.Errorf("d=%d: all vertices of a d-regular graph are rich", d)
		}
	}
}

func TestRunCycleOfCliquesGallai(t *testing.T) {
	// A Gallai-tree-rich workload: path with pendant K3s, d=3.
	rng := rand.New(rand.NewPCG(6, 6))
	g := gen.WithPendantCliques(gen.Path(40), 3)
	if !density.MadAtMost(g, 3) {
		t.Fatal("pendant-triangle path should have mad ≤ 3")
	}
	lists := randomLists(g.N(), 3, 8, rng)
	mustRun(t, g, Config{D: 3, Lists: seqcolor.Given(lists)}, rng)
}

func TestRunForestUnionCorollary14(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, a := range []int{2, 3} {
		g := gen.ForestUnion(150, a, rng)
		lists := randomLists(g.N(), 2*a, 5*a, rng)
		nw := local.NewShuffledNetwork(g, rng)
		res, err := Arboricity2a(context.Background(), nw, a, Config{Lists: seqcolor.Given(lists)})
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if res.Clique != nil {
			t.Fatalf("a=%d: unexpected clique", a)
		}
		if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
	}
}

func TestRunFindsClique(t *testing.T) {
	// K5 buried in a sparse graph with d=4.
	b := graph.NewBuilder(12)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdgeOK(i, j)
		}
	}
	for i := 4; i < 11; i++ {
		b.AddEdgeOK(i, i+1)
	}
	g := b.Graph()
	nw := local.NewNetwork(g)
	res, err := Run(context.Background(), nw, Config{D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clique) != 5 || !g.IsClique(res.Clique) {
		t.Fatalf("expected K5, got %v", res.Clique)
	}
	if res.Colors != nil {
		t.Error("colors should be nil when a clique is found")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := gen.Path(5)
	nw := local.NewNetwork(g)
	if _, err := Run(context.Background(), nw, Config{D: 2}); err == nil {
		t.Error("d=2 accepted")
	}
	short := make([][]int, 5)
	for i := range short {
		short[i] = []int{0, 1}
	}
	if _, err := Run(context.Background(), nw, Config{D: 3, Lists: seqcolor.Given(short)}); err == nil {
		t.Error("short lists accepted")
	}
}

func TestRunEmptyAndTiny(t *testing.T) {
	empty := graph.MustNew(0, nil)
	if _, err := Run(context.Background(), local.NewNetwork(empty), Config{D: 3}); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	single := graph.MustNew(1, nil)
	res, err := Run(context.Background(), local.NewNetwork(single), Config{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors[0] == Uncolored {
		t.Error("single vertex uncolored")
	}
	edge := graph.MustNew(2, [][2]int{{0, 1}})
	res, err = Run(context.Background(), local.NewNetwork(edge), Config{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors[0] == res.Colors[1] {
		t.Error("edge monochromatic")
	}
}

func TestLemma31HappyFraction(t *testing.T) {
	// Lemma 3.1: |A| ≥ n/(3d)³, and ≥ n/(12d+1) when Δ ≤ d.
	rng := rand.New(rand.NewPCG(8, 8))
	g := gen.Apollonian(300, rng)
	res := mustRun(t, g, Config{D: 6}, rng)
	d := 6
	for i, it := range res.Iterations {
		lower := float64(it.Alive) / float64((3*d)*(3*d)*(3*d))
		if float64(it.Happy) < lower {
			t.Errorf("iteration %d: happy=%d below Lemma 3.1 bound %.2f", i, it.Happy, lower)
		}
	}
	// Δ ≤ d case: grid with d=4 (Δ=4)
	g2 := gen.Grid(12, 12)
	res2 := mustRun(t, g2, Config{D: 4}, rng)
	for i, it := range res2.Iterations {
		lower := float64(it.Alive) / float64(12*4+1)
		if float64(it.Happy) < lower {
			t.Errorf("grid iteration %d: happy=%d below n/(12d+1)=%.2f", i, it.Happy, lower)
		}
	}
}

func TestRunIterationBoundPolylog(t *testing.T) {
	// O(d³ log n) iterations; in practice far fewer. Sanity-check a loose
	// polylog-ish cap to catch accidental linear behavior.
	rng := rand.New(rand.NewPCG(9, 9))
	g := gen.Apollonian(500, rng)
	res := mustRun(t, g, Config{D: 6}, rng)
	if len(res.Iterations) > 60 {
		t.Errorf("suspiciously many iterations: %d", len(res.Iterations))
	}
}

func TestRunNiceLists(t *testing.T) {
	// Theorem 6.1 on an irregular graph: deg-sized lists with +1 for
	// deg ≤ 2 and simplicial vertices.
	rng := rand.New(rand.NewPCG(10, 10))
	g := gen.WithPendantCliques(gen.Cycle(30), 4) // K4s hung on a cycle
	nw := local.NewShuffledNetwork(g, rng)
	lists := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		size := g.Degree(v)
		if g.Degree(v) <= 2 || IsSimplicial(nw, v) {
			size++
		}
		perm := rng.Perm(g.MaxDegree() + 4)
		lists[v] = perm[:size]
	}
	res, err := RunNice(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestRunNiceRejectsNonNice(t *testing.T) {
	g := gen.Path(4) // endpoints have degree 1 ⇒ need 2 colors
	nw := local.NewNetwork(g)
	lists := [][]int{{0}, {0, 1}, {0, 1}, {0, 1}}
	if _, err := RunNice(context.Background(), nw, Config{Lists: seqcolor.Given(lists)}); !errors.Is(err, ErrNotNice) {
		t.Errorf("want ErrNotNice, got %v", err)
	}
}

func TestDeltaListColorCorollary21(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	// 4-regular-ish graph plus a K5 component: Δ=4, lists of size 4.
	g1, err := gen.RandomRegular(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Disjoint(g1, gen.Complete(5))
	n := g.N()
	lists := randomLists(n, 4, 10, rng)
	nw := local.NewShuffledNetwork(g, rng)
	res, err := DeltaListColor(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		// A K5 with jointly-unmatchable 4-lists is legitimately infeasible.
		if errors.Is(err, seqcolor.ErrNoColoring) {
			return
		}
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaListColorInfeasibleClique(t *testing.T) {
	g := gen.Complete(5) // Δ=4, identical 4-lists: infeasible
	nw := local.NewNetwork(g)
	lists := seqcolor.UniformLists(5, 4)
	_, err := DeltaListColor(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if !errors.Is(err, seqcolor.ErrNoColoring) {
		t.Fatalf("want ErrNoColoring, got %v", err)
	}
}

func TestDeltaListColorFeasibleClique(t *testing.T) {
	// K5 with 4-lists admitting an SDR: {0,1,2,3}, {1,2,3,4}, … rotating.
	g := gen.Complete(5)
	nw := local.NewNetwork(g)
	lists := make([][]int, 5)
	for v := range lists {
		lists[v] = []int{v, v + 1, v + 2, v + 3} // distinct minima ⇒ SDR exists
	}
	res, err := DeltaListColor(context.Background(), nw, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestHeawoodNumber(t *testing.T) {
	// g=1 (torus/Klein... Euler genus 1): H = ⌊(7+5)/2⌋ = 6; g=2: ⌊(7+7)/2⌋ = 7
	if HeawoodNumber(1) != 6 {
		t.Errorf("H(1)=%d, want 6", HeawoodNumber(1))
	}
	if HeawoodNumber(2) != 7 {
		t.Errorf("H(2)=%d, want 7", HeawoodNumber(2))
	}
}

func TestGenusCorollary211(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	// Toroidal triangulation C_n(1,2,3): Euler genus 2 (orientable genus 1).
	g := gen.CyclePower(60, 3)
	nw := local.NewShuffledNetwork(g, rng)
	lists := randomLists(g.N(), HeawoodNumber(2), 16, rng)
	res, err := GenusHg(context.Background(), nw, 2, Config{Lists: seqcolor.Given(lists)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clique != nil {
		t.Fatalf("unexpected K_%d", HeawoodNumber(2)+1)
	}
	if err := seqcolor.Verify(g, res.Colors, seqcolor.Given(lists)); err != nil {
		t.Fatal(err)
	}
}

func TestRunDisconnected(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	g := gen.Disjoint(gen.Cycle(9), gen.Grid(4, 4), gen.Path(7))
	mustRun(t, g, Config{D: 3}, rng)
}

func TestRunSmallBallConstantMayStall(t *testing.T) {
	// Ablation: tiny ball constants may stall on witness-free regular
	// graphs; if they do, the error must be ErrStalled, never a wrong
	// coloring.
	rng := rand.New(rand.NewPCG(14, 14))
	g, err := gen.RandomRegular(50, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := local.NewShuffledNetwork(g, rng)
	res, err := Run(context.Background(), nw, Config{D: 3, BallC: 0.05})
	if err != nil {
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err := seqcolor.Verify(g, res.Colors, res.Lists); err != nil {
		t.Fatal(err)
	}
}

func TestRunLedgerPhases(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	g := gen.Apollonian(100, rng)
	res := mustRun(t, g, Config{D: 6}, rng)
	phases := res.Ledger.ByPhase()
	if len(phases) < 3 {
		t.Errorf("expected several phases, got %+v", phases)
	}
	if res.Rounds() <= 0 {
		t.Error("no rounds charged")
	}
	seen := map[string]bool{}
	for _, p := range phases {
		seen[p.Phase] = true
	}
	for _, want := range []string{"peel/happy", "extend/ruling", "clique-check"} {
		if !seen[want] {
			t.Errorf("phase %q missing from ledger: %+v", want, phases)
		}
	}
}
