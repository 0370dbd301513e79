package distcolor

import (
	"context"
	"math"
	"math/bits"
	"math/rand/v2"

	"distcolor/internal/be"
	"distcolor/internal/core"
	"distcolor/internal/gps"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
)

// The RoundBound envelopes below are deliberately loose upper bounds on the
// reproduction's measured round cost under default parameters — tight
// enough to predict cost and catch a spinning run, never tight enough to
// fail a legitimate one.

// logN is ⌈log₂ n⌉ + 1, the "log n" unit of the bounds (≥ 1).
func logN(n int) int {
	if n < 2 {
		return 1
	}
	return bits.Len(uint(n-1)) + 1
}

// polylog3Bound envelopes the Theorem 1.3 family: O(log³ n) ball phases
// plus Linial/Δ+1 reduction terms of order Δ². The arithmetic runs in
// int64 with Δ clamped so 16·Δ² cannot overflow, and the result saturates
// at MaxInt32 — never a negative or wrapped "bound", on any platform.
func polylog3Bound(n, maxDeg int) int {
	l := int64(logN(n))
	d := min(int64(maxDeg), RoundBoundMaxDeg)
	b := 64*l*l*l + 16*d*d + 256
	return int(min(b, math.MaxInt32))
}

// lubyStyleBound envelopes the randomized proposal colorings, which finish
// in O(log n) rounds with high probability; the slack makes the failure
// probability of a legitimate run astronomically small.
func lubyStyleBound(n, _ int) int { return 64*logN(n) + 128 }

// The built-in algorithms. Each entry is the complete description of one
// wire algorithm — parameter schema, list support, palette size, paper
// mapping and run func; the CLI, the server and the public API all dispatch
// through these descriptors and nothing else.
func init() {
	MustRegister(&Algorithm{
		Name:    "sparse",
		Doc:     "d-list-coloring of graphs with mad(G) ≤ d, or a K_{d+1} certificate",
		Theorem: "Theorem 1.3",
		Params: []Param{{
			Name: "d", Doc: "sparsity parameter (d ≥ max(3, mad(G)))",
			Default: 6, Min: 3, Integer: true,
		}},
		Lists:       ListsAny,
		PaletteSize: func(_ *Graph, p ParamValues) (int, bool) { return p.Int("d"), true },
		Smoke:       "regular:60,3",
		RoundBound:  polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			return coreRun(ctx, g, rc, core.Run, core.Config{D: rc.Params.Int("d")})
		},
	})
	MustRegister(&Algorithm{
		Name:        "planar6",
		Doc:         "6-list-coloring of planar graphs in O(log³ n) rounds",
		Theorem:     "Corollary 2.3(1)",
		Lists:       ListsAny,
		PaletteSize: func(*Graph, ParamValues) (int, bool) { return 6, true },
		Smoke:       "apollonian:60",
		RoundBound:  polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			return coreRun(ctx, g, rc, core.Planar6, core.Config{})
		},
	})
	MustRegister(&Algorithm{
		Name:        "trianglefree4",
		Doc:         "4-list-coloring of triangle-free planar graphs",
		Theorem:     "Corollary 2.3(2)",
		Lists:       ListsAny,
		PaletteSize: func(*Graph, ParamValues) (int, bool) { return 4, true },
		Smoke:       "grid:6x6",
		RoundBound:  polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			return coreRun(ctx, g, rc, core.TriangleFree4, core.Config{})
		},
	})
	MustRegister(&Algorithm{
		Name:        "girth6",
		Doc:         "3-list-coloring of planar graphs of girth ≥ 6",
		Theorem:     "Corollary 2.3(3)",
		Lists:       ListsAny,
		PaletteSize: func(*Graph, ParamValues) (int, bool) { return 3, true },
		Smoke:       "cycle:30",
		RoundBound:  polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			return coreRun(ctx, g, rc, core.Girth6Planar3, core.Config{})
		},
	})
	MustRegister(&Algorithm{
		Name:    "arboricity",
		Doc:     "2a-list-coloring of graphs of arboricity a",
		Theorem: "Corollary 1.4",
		Params: []Param{{
			Name: "a", Doc: "arboricity (a ≥ 2 for the corollary; a = 1 errors at run time)",
			Default: 2, Min: 1, Integer: true,
		}},
		Lists:       ListsAny,
		PaletteSize: func(_ *Graph, p ParamValues) (int, bool) { return 2 * p.Int("a"), true },
		Smoke:       "forests:60,2",
		RoundBound:  polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			res, err := core.Arboricity2a(ctx, rc.network(g), rc.Params.Int("a"), core.Config{
				Lists: rc.Lists, BallC: rc.BallC, Trace: rc.trace,
			})
			if err != nil {
				return nil, err
			}
			return fromResult(res), nil
		},
	})
	MustRegister(&Algorithm{
		Name:    "genus",
		Doc:     "H(g)-list-coloring of graphs of Euler genus g (Heawood palette)",
		Theorem: "Corollary 2.11",
		Params: []Param{{
			Name: "genus", Doc: "Euler genus (g ≥ 1)",
			Default: 1, Min: 1, Integer: true,
		}},
		Lists: ListsAny,
		PaletteSize: func(_ *Graph, p ParamValues) (int, bool) {
			return core.HeawoodNumber(p.Int("genus")), true
		},
		Smoke:      "klein:5x9",
		RoundBound: polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			res, err := core.GenusHg(ctx, rc.network(g), rc.Params.Int("genus"), core.Config{
				Lists: rc.Lists, BallC: rc.BallC, Trace: rc.trace,
			})
			if err != nil {
				return nil, err
			}
			return fromResult(res), nil
		},
	})
	MustRegister(&Algorithm{
		Name:    "delta",
		Doc:     "Δ-list-coloring, or a certificate that none exists",
		Theorem: "Corollary 2.1",
		Lists:   ListsAny,
		PaletteSize: func(g *Graph, _ ParamValues) (int, bool) {
			if g == nil {
				return 0, false // Δ(G) is graph-dependent
			}
			return g.MaxDegree(), true
		},
		Smoke:      "grid:5x6",
		RoundBound: polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			lists := rc.Lists
			if lists == nil {
				lists = UniformLists(g.N(), g.MaxDegree())
			}
			res, err := core.DeltaListColor(ctx, rc.network(g), core.Config{
				Lists: lists, BallC: rc.BallC, Trace: rc.trace,
			})
			if err != nil {
				return nil, err
			}
			return fromResult(res), nil
		},
	})
	MustRegister(&Algorithm{
		Name:       "nice",
		Doc:        "(deg+ε)-list-coloring for nice list assignments",
		Theorem:    "Theorem 6.1",
		Lists:      ListsOwn,
		Smoke:      "apollonian:40",
		RoundBound: polylog3Bound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			lists := rc.Lists
			if lists == nil {
				lists = niceLists(g, rc.RNG())
			}
			res, err := core.RunNice(ctx, rc.network(g), core.Config{
				Lists: lists, BallC: rc.BallC, Trace: rc.trace,
			})
			if err != nil {
				return nil, err
			}
			return fromResult(res), nil
		},
	})
	MustRegister(&Algorithm{
		Name:    "gps7",
		Doc:     "Goldberg–Plotkin–Shannon 7-coloring of planar graphs (baseline)",
		Theorem: "baseline (Section 1.1)",
		Lists:   ListsNone,
		Smoke:   "apollonian:60",
		// GPS peels O(log n) layers, each a Cole–Vishkin forest coloring
		// plus a constant-round merge.
		RoundBound: func(n, _ int) int { return 256*logN(n) + 512 },
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			ledger := rc.ledger()
			res, err := gps.Planar7(ctx, rc.network(g), ledger)
			if err != nil {
				return nil, err
			}
			return coloringFromLedger(res.Colors, ledger), nil
		},
	})
	MustRegister(&Algorithm{
		Name:    "be",
		Doc:     "Barenboim–Elkin ⌊(2+ε)a⌋+1-coloring of arboricity-a graphs (baseline)",
		Theorem: "baseline (Section 1.3)",
		Params: []Param{
			{Name: "a", Doc: "arboricity (a ≥ 1)", Default: 2, Min: 1, Integer: true},
			{Name: "eps", Doc: "palette slack ε > 0", Default: 0.5, Min: 0, StrictMin: true},
		},
		Lists: ListsNone,
		Smoke: "forests:60,2",
		// H-partition + forest decomposition + CV coloring: O((a/ε)·log n)
		// layers under default a=2, ε=½.
		RoundBound: func(n, _ int) int { return 512*logN(n) + 1024 },
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			ledger := rc.ledger()
			res, err := be.ColorArb(ctx, rc.network(g), ledger, rc.Params.Int("a"), rc.Params.Float("eps"))
			if err != nil {
				return nil, err
			}
			return coloringFromLedger(res.Colors, ledger), nil
		},
	})
	MustRegister(&Algorithm{
		Name:       "randomized",
		Doc:        "randomized (deg+1)-list-coloring by iterated random proposal (baseline)",
		Theorem:    "baseline (Question 6.2 remark)",
		Lists:      ListsNone,
		Smoke:      "grid:6x6",
		RoundBound: lubyStyleBound,
		Run:        runRandomized,
	})
}

// coreRun is the shared shape of the Theorem 1.3 family: build the network,
// fill the config from the RunConfig, delegate, convert.
func coreRun(ctx context.Context, g *Graph, rc *RunConfig,
	run func(context.Context, *local.Network, core.Config) (*core.Result, error),
	cfg core.Config) (*Coloring, error) {
	cfg.Lists = rc.Lists
	cfg.BallC = rc.BallC
	cfg.Trace = rc.trace
	res, err := run(ctx, rc.network(g), cfg)
	if err != nil {
		return nil, err
	}
	return fromResult(res), nil
}

// niceLists draws a random nice list assignment (Theorem 6.1): |L(v)| ≥
// deg(v), strictly larger when deg(v) ≤ 2 or N(v) is a clique.
func niceLists(g *Graph, rng *rand.Rand) [][]int {
	out := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		size := g.Degree(v)
		if size <= 2 || simplicial(g, v) {
			size++
		}
		if size < 1 {
			size = 1
		}
		perm := rng.Perm(g.MaxDegree() + 4)
		out[v] = perm[:size]
	}
	return out
}

func simplicial(g *Graph, v int) bool {
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

// runRandomized is the randomized list-coloring baseline: each vertex gets
// a random list of size deg(v)+1 and colors itself by iterated random
// proposal. All randomness (ID shuffle, lists, per-node seeds) derives from
// the run's RNG, so results are deterministic in (graph, seed).
func runRandomized(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
	rng := rc.RNG()
	nw := local.NewShuffledNetwork(g, rng)
	lists := make([][]int, g.N())
	for v := range lists {
		perm := rng.Perm(g.MaxDegree() + 4)
		lists[v] = perm[:g.Degree(v)+1]
	}
	ledger := rc.ledger()
	colors, err := reduce.RandomizedListColor(ctx, nw, ledger, "randomized", lists, rng.Uint64(), rc.MaxRounds(g))
	if err != nil {
		return nil, err
	}
	col := coloringFromLedger(colors, ledger)
	col.Lists = lists
	return col, nil
}
