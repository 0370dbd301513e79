package core

import (
	"context"
	"fmt"

	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/ruling"
	"distcolor/internal/seqcolor"
)

type extendStats struct {
	roots    int
	treeSize int
	maxDepth int
}

// extend implements Lemma 3.2: given the current graph's rich set R and
// happy set A (uncolored; everything else alive is colored), it extends the
// coloring to A, possibly recoloring parts of R. Vertices not yet alive are
// always Uncolored here: extension runs from the last layer to the first
// and colors only tree and ball vertices, which lie in R ⊆ alive. So a
// neighbor's color needs no alive mask to count.
//
// Steps: (α, α·log n)-ruling forest of G[R] w.r.t. A with α = 2·radius+2;
// uncolor the forest T; (d+1)-color G[T] to schedule a leaves-to-root greedy
// recoloring; finally recolor each root's rich ball with the constructive
// Theorem 1.1 (valid because roots are happy).
func extend(ctx context.Context, nw *local.Network, ledger *local.Ledger,
	rich, happy []int, colors []int, lists [][]int, radius int) (extendStats, error) {

	g := nw.G
	n := g.N()
	var st extendStats

	richMask := make([]bool, n)
	for _, v := range rich {
		richMask[v] = true
	}

	// --- Ruling forest: roots pairwise > 2·radius apart so that their rich
	// balls are disjoint with no edges in between.
	alpha := 2*radius + 2
	forest, err := ruling.Compute(ctx, nw, ledger, "extend/ruling", richMask, happy, alpha)
	if err != nil {
		return st, fmt.Errorf("ruling forest: %w", err)
	}
	tree := forest.TreeVertices()
	st.roots = len(forest.Roots)
	st.treeSize = len(tree)
	st.maxDepth = forest.MaxDepth

	// --- Uncolor T (the colored part of T is exactly T ∩ S).
	treeMask := make([]bool, n)
	for _, v := range tree {
		treeMask[v] = true
		colors[v] = Uncolored
	}

	// --- Schedule: proper coloring of H = G[T] with ≤ Δ(H)+1 classes
	// (Δ(H) ≤ d when T ⊆ R, per Theorem 1.3; ≤ Δ(G) for Theorem 6.1).
	classes := reduce.DegPlusOne(nw, ledger, "extend/schedule", treeMask)
	maxClass := 0
	for _, v := range tree {
		if classes[v] > maxClass {
			maxClass = classes[v]
		}
	}

	// --- Leaves-to-root greedy: for each depth from deepest to 1, for each
	// class, color that independent set greedily from the lists. Every
	// non-root keeps its parent uncolored, so a free color exists
	// (Observation 5.1). The tree is bucketized by (depth, class) up front —
	// preserving its vertex order inside each bucket, so the greedy visits
	// vertices in exactly the order the nested rescan did — instead of
	// rescanning all of T once per (depth, class) pair.
	buckets := make([][]int, (forest.MaxDepth+1)*(maxClass+1))
	for _, v := range tree {
		if d := forest.Depth[v]; d >= 1 {
			slot := d*(maxClass+1) + classes[v]
			buckets[slot] = append(buckets[slot], v)
		}
	}
	for depth := forest.MaxDepth; depth >= 1; depth-- {
		for class := 0; class <= maxClass; class++ {
			bucket := buckets[depth*(maxClass+1)+class]
			if len(bucket) == 0 {
				continue
			}
			if err := seqcolor.GreedyInOrder(g, colors, lists, bucket); err != nil {
				return st, fmt.Errorf("layered pass at depth %d: %w", depth, err)
			}
			ledger.Charge("extend/layered", 1)
		}
	}

	// --- Root balls: uncolor each root's rich ball entirely and recolor it
	// with the constructive Theorem 1.1. Balls of distinct roots are
	// disjoint and non-adjacent (α = 2·radius+2), so the components of the
	// uncolored set are exactly the balls.
	if len(forest.Roots) > 0 {
		for _, r := range forest.Roots {
			ball := g.Ball(r, radius, richMask)
			for _, u := range ball {
				colors[u] = Uncolored
			}
			if err := colorBallTheorem11(g, colors, lists, ball); err != nil {
				return st, fmt.Errorf("root %d ball: %w", r, err)
			}
		}
		// Collect + recolor each ball: radius+1 rounds, all roots parallel.
		ledger.Charge("extend/rootballs", radius+1)
	}
	return st, nil
}

// colorBallTheorem11 materializes the (fully uncolored) ball as its own
// graph, filters each vertex's list by the colors of its colored neighbors
// (all outside the ball), runs seqcolor.DegreeListColor (constructive
// Theorem 1.1) and writes the colors back. The happiness of the root
// guarantees the hypotheses: the ball has a surplus vertex or is not a
// Gallai tree.
func colorBallTheorem11(g *graph.Graph, colors []int, lists [][]int, ball []int) error {
	sub, orig, err := g.Induced(ball)
	if err != nil {
		return err
	}
	subLists := seqcolor.EffectiveLists(g, colors, lists, orig)
	subColors := make([]int, sub.N())
	for i := range subColors {
		subColors[i] = Uncolored
	}
	if err := seqcolor.DegreeListColor(sub, subColors, subLists); err != nil {
		return fmt.Errorf("Theorem 1.1 on the ball failed (broken happiness invariant?): %w", err)
	}
	for i, u := range orig {
		colors[u] = subColors[i]
	}
	return nil
}
