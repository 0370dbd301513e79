package core

import (
	"context"
	"fmt"
	"slices"

	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/ruling"
	"distcolor/internal/seqcolor"
)

type extendStats struct {
	roots    int
	treeSize int
	maxDepth int
}

// extend implements Lemma 3.2: given the layer's rich set R and happy set
// A (uncolored; everything else alive is colored), it extends the
// coloring to A, possibly recoloring parts of R. Vertices not yet alive are
// always Uncolored here: extension runs from the last layer to the first
// and colors only tree and ball vertices, which lie in R ⊆ alive. So a
// neighbor's color needs no alive mask to count.
//
// Steps: (α, α·log n)-ruling forest of G[R] w.r.t. A with α = 2·radius+2;
// uncolor the forest T; (d+1)-color G[T] to schedule a leaves-to-root greedy
// recoloring; finally recolor each root's rich ball with the constructive
// Theorem 1.1 (valid because roots are happy). The run's peel state s
// lends its n-sized rich mask, all false on entry, which holds R during the
// call and is all false again on return, its host traversal and its
// ruling, schedule and ball workspaces.
func extend(ctx context.Context, nw *local.Network, ledger *local.Ledger, s *peelState,
	lay layer, colors []int, lists seqcolor.Lists, radius int) (extendStats, error) {

	g := nw.G
	richMask := s.rich
	ws := &s.balls
	var st extendStats

	for _, v := range lay.rich {
		richMask[v] = true
	}
	defer func() {
		for _, v := range lay.rich {
			richMask[v] = false
		}
	}()

	// --- Ruling forest: roots pairwise > 2·radius apart so that their rich
	// balls are disjoint with no edges in between.
	alpha := 2*radius + 2
	labels := ruling.Labels{Comp: s.compOf, Diam: lay.diam}
	forest, err := s.ruling.Compute(ctx, nw, &s.tr, ledger, "extend/ruling", richMask, lay.happy, labels, alpha)
	if err != nil {
		return st, fmt.Errorf("ruling forest: %w", err)
	}
	tree := forest.Tree
	st.roots = len(forest.Roots)
	st.treeSize = len(tree)
	st.maxDepth = forest.MaxDepth

	// --- Uncolor T (the colored part of T is exactly T ∩ S).
	for _, v := range tree {
		colors[v] = Uncolored
	}

	// The ruling forest checked ctx last; the schedule and the root balls
	// check it again, so that a deadline during the last layer's extension
	// still stops the run.
	if err := ctx.Err(); err != nil {
		return st, err
	}

	// --- Schedule: proper coloring of H = G[T] with ≤ Δ(H)+1 classes
	// (Δ(H) ≤ d when T ⊆ R, per Theorem 1.3; ≤ Δ(G) for Theorem 6.1),
	// aligned with the tree list.
	classes := s.sched.DegPlusOne(nw, ledger, "extend/schedule", tree)
	maxClass := 0
	for _, c := range classes {
		maxClass = max(maxClass, c)
	}

	// --- Leaves-to-root greedy: for each depth from deepest to 1, for each
	// class, color that independent set greedily from the lists, one round
	// per non-empty bucket. Every non-root keeps its parent uncolored, so a
	// free color exists (Observation 5.1). Buckets keep the tree's order.
	//
	// Only buckets deeper than radius are colored; a shallower one keeps its
	// first vertex, enough to charge it. Depth is the distance to the nearest
	// ruler in G[R], so a vertex at depth ≤ radius lies in that root's ball,
	// whose recoloring below overwrites its layered color unread. A vertex at
	// depth d > radius has tree neighbors at depth ≥ d−1 only: the deeper
	// ones colored as in the full pass, those at d−1 still uncolored in both.
	// Every shallow vertex lies in a ball, and balls are non-adjacent, so no
	// ball's effective lists read a skipped color either.
	buckets := make([][]int, (forest.MaxDepth+1)*(maxClass+1))
	for i, v := range tree {
		if d := forest.Depth[i]; d >= 1 {
			slot := d*(maxClass+1) + classes[i]
			if d > radius || len(buckets[slot]) == 0 {
				buckets[slot] = append(buckets[slot], v)
			}
		}
	}
	for depth := forest.MaxDepth; depth >= 1; depth-- {
		for class := 0; class <= maxClass; class++ {
			bucket := buckets[depth*(maxClass+1)+class]
			if len(bucket) == 0 {
				continue
			}
			if depth > radius {
				if err := ws.seq.GreedyInOrder(g, colors, lists, bucket); err != nil {
					return st, fmt.Errorf("layered pass at depth %d: %w", depth, err)
				}
			}
			ledger.Charge("extend/layered", 1)
		}
	}

	// --- Root balls, on the forest's search, which Compute leaves in s.tr.
	if len(forest.Roots) > 0 {
		if err := extendRootBalls(ctx, g, &s.tr, colors, lists, lay.blocks, radius, ws); err != nil {
			return st, err
		}
		// Collect + recolor each ball: radius+1 rounds, all roots parallel.
		ledger.Charge("extend/rootballs", radius+1)
	}
	return st, nil
}

// extendRootBalls uncolors each root's rich ball entirely and recolors it
// with the constructive Theorem 1.1. Balls of distinct roots are disjoint
// and non-adjacent (α = 2·radius+2), so the components of the uncolored
// set are exactly the balls. tr holds the search of the rich set from the
// roots, which all balls are carved off at once: roots are more than
// 2·radius apart, so each carved ball is its root's, root first, in the
// order AppendBall would give it. The run's one workspace serves every
// ball. A ball holding the minimum of a one-block component of the layer
// (blocks) is that whole component, so it is one bad block. ctx is checked
// before each batch of ballsPerCheck balls.
func extendRootBalls(ctx context.Context, g *graph.Graph, tr *graph.Traversal, colors []int, lists seqcolor.Lists, blocks []int, radius int, ws *ballWorkspace) error {
	ws.carved, ws.ends = tr.CarveBalls(ws.carved, ws.ends, radius)
	start := int32(0)
	for i, end := range ws.ends {
		if i%ballsPerCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if cap(ws.ball) < int(end-start) {
			ws.ball = make([]int, 0, end-start)
		}
		ws.ball = ws.ball[:0]
		for _, u := range ws.carved[start:end] {
			ws.ball = append(ws.ball, int(u))
			colors[u] = Uncolored
		}
		start = end
		_, oneBlock := slices.BinarySearch(blocks, slices.Min(ws.ball))
		if err := colorBallTheorem11(g, tr, colors, lists, ws.ball, oneBlock, ws); err != nil {
			return fmt.Errorf("root %d ball: %w", ws.ball[0], err)
		}
	}
	return nil
}

// ballsPerCheck is how many root balls extendRootBalls recolors between
// two checks of ctx.
const ballsPerCheck = 64

// ballWorkspace is the scratch extend reuses across its layers and root
// balls, one per run: a layer's carved balls and their ends, the ball
// being recolored, its induced graph's arrays and colors and the Theorem
// 1.1 workspace, whose palette bitset also serves the layered pass. Each
// array grows to exactly the size needed; peelAndExtend sizes carved once,
// to the largest rich set.
type ballWorkspace struct {
	carved, ends []int32
	ball         []int
	ind          graph.InducedBuf
	colors       []int
	seq          seqcolor.Workspace
}

// colorBallTheorem11 colors the (fully uncolored) ball with the
// constructive Theorem 1.1, all on ws's scratch and the host traversal tr,
// which it binds to g. The happiness of the root guarantees the
// hypotheses: the ball has a surplus vertex or is not a Gallai tree.
// oneBlock tells that the ball is one bad block. The ball lists the BFS
// of the rich set from its root, as AppendBall or CarveBalls carves it,
// the order the in-place path relies on.
//
// A ball with a surplus vertex, and a one-block ball that takes step (b)
// or the Brooks fast path, is colored in place on g
// (seqcolor.Workspace.ColorBall). Any other ball is materialized as its
// own graph, each vertex's list is filtered by the colors of its colored
// neighbors (all outside the ball), seqcolor.DegreeListColor runs on the
// copy and the colors are written back. Both give the same colors.
func colorBallTheorem11(g *graph.Graph, tr *graph.Traversal, colors []int, lists seqcolor.Lists, ball []int, oneBlock bool, ws *ballWorkspace) error {
	if ws.seq.ColorBall(g, colors, lists, ball, oneBlock) {
		return nil
	}
	sub, err := tr.Bind(g).InducedInto(&ws.ind, ball)
	if err != nil {
		return err
	}
	subLists := ws.seq.EffectiveLists(g, colors, lists, ball)
	if cap(ws.colors) < len(ball) {
		ws.colors = make([]int, len(ball))
	}
	subColors := ws.colors[:len(ball)]
	for i := range subColors {
		subColors[i] = Uncolored
	}
	if err := ws.seq.DegreeListColor(sub, subColors, subLists); err != nil {
		return fmt.Errorf("Theorem 1.1 on the ball failed (broken happiness invariant?): %w", err)
	}
	for i, u := range ball {
		colors[u] = subColors[i]
	}
	return nil
}
