package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// ErrNotNice reports a list assignment violating Theorem 6.1's niceness.
var ErrNotNice = errors.New("core: list assignment is not nice")

// IsSimplicial reports whether v's neighborhood is a clique.
func IsSimplicial(nw *local.Network, v int) bool {
	g := nw.G
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
				return false
			}
		}
	}
	return true
}

// ValidateNice checks the Theorem 6.1 niceness condition: |L(v)| ≥ deg(v)
// for every v, and |L(v)| ≥ deg(v)+1 whenever deg(v) ≤ 2 or v is simplicial.
func ValidateNice(nw *local.Network, lists [][]int) error {
	g := nw.G
	for v := 0; v < g.N(); v++ {
		need := g.Degree(v)
		if need <= 2 || IsSimplicial(nw, v) {
			need++
		}
		if len(lists[v]) < need {
			return fmt.Errorf("%w: vertex %d needs %d colors, has %d", ErrNotNice, v, need, len(lists[v]))
		}
	}
	return nil
}

// RunNice is Theorem 6.1: given a nice list assignment (cfg.Lists) on a
// graph of maximum degree Δ, finds an L-list-coloring in O(Δ² log³ n)
// rounds. Every vertex is rich; the witness predicate becomes "more colors
// than remaining degree". cfg.D is ignored.
func RunNice(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	lists := cfg.Lists
	if err := ValidateNice(nw, lists); err != nil {
		return nil, err
	}
	ledger := &local.Ledger{Trace: cfg.Trace}
	res := &Result{Ledger: ledger, Lists: lists}
	if n == 0 {
		return res, nil
	}
	c := cfg.BallC
	if c == 0 {
		c = DefaultBallC
	}
	radius := int(math.Ceil(c * math.Log2(float64(n))))
	if radius < 1 {
		radius = 1
	}
	res.Radius = radius
	delta := g.MaxDegree()
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 8*(delta+2)*int(math.Ceil(math.Log2(float64(n+1)))) + 64
	}
	richTest := func(degAlive int, v int) bool { return true }
	witness := func(degAlive int, v int) bool { return degAlive < len(lists[v]) }
	if err := peelAndExtend(ctx, nw, res, lists, radius, maxIter, richTest, witness); err != nil {
		return nil, err
	}
	return res, nil
}

// DeltaListColor is Corollary 2.1: given Δ ≥ 3 and a Δ-list assignment
// (cfg.Lists), either finds an L-list-coloring or certifies that none
// exists. K_{Δ+1} components are solved exactly by Hall matching
// (seqcolor.CliqueListColor); when one is infeasible, seqcolor.ErrNoColoring
// is returned. All other components go through Theorem 1.3 with d = Δ.
// cfg.D is ignored.
func DeltaListColor(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	lists := cfg.Lists
	delta := g.MaxDegree()
	if delta < 3 {
		return nil, fmt.Errorf("core: Corollary 2.1 requires Δ ≥ 3, got %d", delta)
	}
	for v := 0; v < n; v++ {
		if len(lists[v]) < delta {
			return nil, fmt.Errorf("core: vertex %d has list of size %d < Δ=%d", v, len(lists[v]), delta)
		}
	}
	ledger := &local.Ledger{Trace: cfg.Trace}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = Uncolored
	}
	// Split off K_{Δ+1} components (the only K_{Δ+1} in a max-degree-Δ
	// graph is a full component): detectable in 2 rounds.
	ledger.Charge("clique-components", 2)
	restMask := make([]bool, n)
	for i := range restMask {
		restMask[i] = true
	}
	for _, comp := range g.Components(nil) {
		if len(comp) == delta+1 && g.IsClique(comp) {
			if err := seqcolor.CliqueListColor(g, comp, colors, lists); err != nil {
				return nil, fmt.Errorf("core: K_%d component: %w", delta+1, err)
			}
			for _, v := range comp {
				restMask[v] = false
			}
		}
	}
	// Theorem 1.3 on the remainder (no K_{Δ+1} left; mad ≤ Δ trivially).
	sub, orig, err := g.InducedMask(restMask)
	if err != nil {
		return nil, err
	}
	res := &Result{Ledger: ledger, Lists: lists, Colors: colors}
	if sub.N() > 0 {
		subLists := make([][]int, sub.N())
		for i, v := range orig {
			subLists[i] = lists[v]
		}
		nw2 := local.NewNetwork(sub)
		sres, err := Run(ctx, nw2, Config{D: delta, Lists: subLists, BallC: cfg.BallC, Trace: cfg.Trace})
		if err != nil {
			return nil, err
		}
		if sres.Clique != nil {
			// impossible: K_{Δ+1} components were removed
			return nil, fmt.Errorf("core: internal: unexpected clique in remainder")
		}
		for i, v := range orig {
			colors[v] = sres.Colors[i]
		}
		// The sub-run recorded into the shared trace live; Merge only
		// folds its phases into this ledger.
		ledger.Merge("", sres.Ledger)
		res.Radius = sres.Radius
		res.Iterations = sres.Iterations
	}
	return res, nil
}

// Planar6 is Corollary 2.3(1): 6-list-coloring of planar graphs in
// O(log³ n) rounds (planar ⇒ mad < 6; a K₇ would be reported, but planar
// graphs have none). cfg.Lists == nil means colors {0..5}; cfg.D is forced.
func Planar6(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	cfg.D = 6
	return Run(ctx, nw, cfg)
}

// TriangleFree4 is Corollary 2.3(2): 4-list-coloring of triangle-free
// planar graphs (mad < 4). cfg.D is forced.
func TriangleFree4(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	cfg.D = 4
	return Run(ctx, nw, cfg)
}

// Girth6Planar3 is Corollary 2.3(3): 3-list-coloring of planar graphs of
// girth ≥ 6 (mad < 3). cfg.D is forced.
func Girth6Planar3(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	cfg.D = 3
	return Run(ctx, nw, cfg)
}

// Arboricity2a is Corollary 1.4: 2a-list-coloring of arboricity-a graphs
// (a ≥ 2): mad ≤ 2a and no K_{2a+1} (which has arboricity a+1… more
// precisely ⌈(2a+1)/2⌉ = a+1 > a). cfg.D is forced to 2a.
func Arboricity2a(ctx context.Context, nw *local.Network, a int, cfg Config) (*Result, error) {
	if a < 2 {
		return nil, fmt.Errorf("core: Corollary 1.4 requires a ≥ 2 (Linial's path lower bound forbids a = 1)")
	}
	cfg.D = 2 * a
	return Run(ctx, nw, cfg)
}

// HeawoodNumber returns H(g) = ⌊(7+√(24g+1))/2⌋, the Heawood bound on the
// choice number for Euler genus g ≥ 1 (Corollary 2.11).
func HeawoodNumber(genus int) int {
	return int(math.Floor((7 + math.Sqrt(24*float64(genus)+1)) / 2))
}

// GenusHg is Corollary 2.11: an H(g)-list-coloring of graphs of Euler genus
// g ≥ 1 in O(log³ n) rounds (mad ≤ (5+√(24g+1))/2 < H(g)). If a K_{H(g)+1}
// exists the graph is not genus-g and the clique is returned in Result.
// cfg.D is forced to H(g).
func GenusHg(ctx context.Context, nw *local.Network, genus int, cfg Config) (*Result, error) {
	if genus < 1 {
		return nil, fmt.Errorf("core: Corollary 2.11 requires Euler genus ≥ 1")
	}
	cfg.D = HeawoodNumber(genus)
	return Run(ctx, nw, cfg)
}
