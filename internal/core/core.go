// Package core implements the paper's primary contribution (Aboulker,
// Bonamy, Bousquet, Esperet, PODC 2018): a deterministic distributed
// algorithm that, given an n-vertex graph G and an integer
// d ≥ max(3, mad(G)), either finds a K_{d+1} or d-list-colors G in
// O(d⁴ log³ n) LOCAL rounds (O(d² log³ n) when Δ(G) ≤ d) — Theorem 1.3 —
// together with its corollaries (1.4, 2.1, 2.3, 2.11) and the Theorem 6.1
// nice-list variant.
//
// Structure of the algorithm (Section 3 of the paper):
//
//  1. Peeling (Lemma 3.1): classify vertices of the current graph as rich
//     (degree ≤ d) or poor; a rich vertex is happy when its radius-(c·log n)
//     ball inside the rich subgraph contains a vertex of degree ≤ d−1 or is
//     not a Gallai tree. The happy set A is a constant fraction of the
//     graph; remove it and repeat (O(d³ log n) iterations).
//  2. Extension (Lemma 3.2): color the A-sets back in reverse order. Each
//     extension computes an (α, α log n)-ruling forest of the rich subgraph
//     with respect to A, uncolors the forest, (d+1)-colors it to schedule a
//     leaves-to-root greedy pass, and finally recolors the roots' rich balls
//     with the constructive Theorem 1.1 (each root is happy, so its ball has
//     a surplus vertex or is not a Gallai tree).
//
// All LOCAL round costs are charged to a ledger (see internal/local).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// Uncolored re-exports the uncolored marker.
const Uncolored = seqcolor.Uncolored

// DefaultBallC is the paper's constant c = 12/log₂(6/5) governing the
// happy-ball radius c·log₂(n) (the value required by Proposition 4.4).
var DefaultBallC = 12 / math.Log2(6.0/5.0)

// ErrStalled is returned if some peeling iteration produces an empty happy
// set — impossible when the hypotheses (d ≥ max(3, mad), no K_{d+1}) hold,
// by Lemma 3.1; it surfaces hypothesis violations and ablation runs with a
// too-small ball constant.
var ErrStalled = errors.New("core: peeling stalled (empty happy set) — hypotheses violated or ball constant too small")

// Config parametrizes a run. Every entry point of the package takes one
// (ctx, nw, Config) triple; the corollary wrappers force D from their own
// parameter and forward everything else.
type Config struct {
	// D is the sparsity parameter d ≥ 3 with mad(G) ≤ d (ignored by the
	// corollary wrappers, which set it themselves).
	D int
	// Lists holds each vertex's color list (|Lists[v]| ≥ D). Nil means the
	// canonical lists {0, …, D−1} (plain d-coloring).
	Lists [][]int
	// BallC overrides the ball-radius constant c (0 = paper default). Only
	// the Lemma 3.1 size guarantee depends on the paper's value; smaller
	// constants are correct until they stall (ablation experiment E9).
	BallC float64
	// MaxIterations bounds the peeling loop (0 = 8·d³·log n + 64, safely
	// above the paper's O(d³ log n); the Δ ≤ d case needs only O(d log n)).
	MaxIterations int
	// Trace, when non-nil, observes the run: it records the execution
	// profile (per-phase rounds, engine messages, shard timings) and feeds
	// live progress; sub-runs record into the same trace live. See
	// local.RoundTrace.
	Trace *local.RoundTrace
}

// IterationStats records one peeling iteration for the Lemma 3.1 experiment.
type IterationStats struct {
	Alive     int // vertices alive at the start of the iteration
	Rich      int // rich vertices (degree ≤ d)
	Poor      int
	Happy     int // |A_i|
	HappyLow  int // happy via a low-degree vertex in the ball
	HappyGal  int // happy via a non-Gallai ball
	RootBalls int // ruling-forest roots during the extension
	TreeSize  int // |T| for the extension
	MaxDepth  int // ruling-forest depth
}

// Result is the outcome of a Theorem 1.3 run.
type Result struct {
	// Colors is the coloring (nil when a clique was found instead).
	Colors []int
	// Clique is a K_{d+1} when one exists (Theorem 1.3's other outcome).
	Clique []int
	// Ledger carries the total LOCAL round cost with per-phase breakdown.
	Ledger *local.Ledger
	// Radius is the happy-ball radius ⌈c·log₂ n⌉ used.
	Radius int
	// Iterations describes each peeling iteration.
	Iterations []IterationStats
	// Lists echoes the lists used (canonical ones when Config.Lists == nil).
	Lists [][]int
}

// Rounds returns the total LOCAL rounds charged.
func (r *Result) Rounds() int { return r.Ledger.Rounds() }

// Run executes Theorem 1.3 on the network. It returns either a coloring or
// a (d+1)-clique inside Result. Cancellation is cooperative: ctx is checked
// at every peeling iteration, every extension layer, and every round of the
// message-passing subroutines, so a cancelled run stops within one round
// and returns ctx.Err(). Run does not verify the coloring: callers check
// it once over the whole graph (distcolor.Run does).
func Run(ctx context.Context, nw *local.Network, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	if cfg.D < 3 {
		return nil, fmt.Errorf("core: Theorem 1.3 requires d ≥ 3, got %d", cfg.D)
	}
	d := cfg.D
	if d > n && n > 0 {
		d = n // the paper's harmless normalization d ≤ n
		if d < 3 {
			d = 3
		}
	}
	lists := cfg.Lists
	if lists == nil {
		lists = seqcolor.UniformLists(n, d)
	}
	for v := 0; v < n; v++ {
		if len(lists[v]) < d {
			return nil, fmt.Errorf("core: vertex %d has list of size %d < d=%d", v, len(lists[v]), d)
		}
	}
	ledger := &local.Ledger{Trace: cfg.Trace}
	res := &Result{Ledger: ledger, Lists: lists}
	if n == 0 {
		res.Colors = nil
		return res, nil
	}

	// Step 0 (two rounds): look for a K_{d+1}.
	ledger.Charge("clique-check", 2)
	if clique := g.FindCliqueDPlus1(d); clique != nil {
		res.Clique = clique
		return res, nil
	}

	// Ball radius ⌈c·log₂ n⌉ (≥ 1).
	c := cfg.BallC
	if c == 0 {
		c = DefaultBallC
	}
	radius := int(math.Ceil(c * math.Log2(float64(n))))
	if radius < 1 {
		radius = 1
	}
	res.Radius = radius

	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 8*d*d*d*int(math.Ceil(math.Log2(float64(n+1)))) + 64
	}
	witness := func(degAlive int, v int) bool { return degAlive <= d-1 }
	richTest := func(degAlive int, v int) bool { return degAlive <= d }
	if err := peelAndExtend(ctx, nw, res, lists, radius, maxIter, richTest, witness); err != nil {
		return nil, err
	}
	return res, nil
}

// peelAndExtend runs the peeling loop (Lemma 3.1) followed by the reverse
// extension loop (Lemma 3.2), filling res.Colors and res.Iterations. The
// rich/witness predicates are those of Theorem 1.3 or Theorem 6.1.
//
// bench/profile.go attributes CPU to its prof.core.* layers by function
// name: peelAndExtend, happySet, extend and colorBallTheorem11 must keep
// their names.
func peelAndExtend(ctx context.Context, nw *local.Network, res *Result, lists [][]int,
	radius, maxIter int,
	richTest, witness func(degAlive int, v int) bool) error {

	g := nw.G
	n := g.N()
	ledger := res.Ledger

	type layer struct {
		rich  []int
		happy []int
	}
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCount := n
	var layers []layer
	for aliveCount > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(layers) >= maxIter {
			return fmt.Errorf("%w (after %d iterations, %d vertices left)", ErrStalled, len(layers), aliveCount)
		}
		st, rich, happy := happySet(g, alive, radius, richTest, witness)
		if len(happy) == 0 {
			return fmt.Errorf("%w (iteration %d, %d alive)", ErrStalled, len(layers)+1, aliveCount)
		}
		// LOCAL cost: 1 round to learn alive-degrees, radius+1 to collect
		// the rich ball, per the standard simulation.
		ledger.Charge("peel/happy", radius+2)
		layers = append(layers, layer{rich: rich, happy: happy})
		res.Iterations = append(res.Iterations, st)
		for _, v := range happy {
			alive[v] = false
		}
		aliveCount -= len(happy)
	}

	// ---- Extension phase (Lemma 3.2), reverse order.
	colors := make([]int, n)
	for v := range colors {
		colors[v] = Uncolored
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		ext, err := extend(ctx, nw, ledger, layers[i].rich, layers[i].happy,
			colors, lists, radius)
		if err != nil {
			return fmt.Errorf("core: extension at layer %d: %w", i+1, err)
		}
		res.Iterations[i].RootBalls = ext.roots
		res.Iterations[i].TreeSize = ext.treeSize
		res.Iterations[i].MaxDepth = ext.maxDepth
	}
	res.Colors = colors
	return nil
}
