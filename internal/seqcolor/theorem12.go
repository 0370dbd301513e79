package seqcolor

import (
	"fmt"
	"slices"

	"distcolor/internal/graph"
)

// CliqueError reports a (d+1)-clique found where the theorem's hypotheses
// forbid one.
type CliqueError struct {
	Clique []int
}

func (e *CliqueError) Error() string {
	return fmt.Sprintf("seqcolor: found K_%d: %v", len(e.Clique), e.Clique)
}

// SparseListColor is the sequential folklore Theorem 1.2: given d ≥ 3 with
// mad(G) ≤ d and lists of size ≥ d, either finds a (d+1)-clique or produces
// an L-list-coloring. It peels vertices of degree ≤ d−1, leaving d-regular
// components; each non-complete d-regular component is d-list-colorable by
// Theorem 1.1 (the only d-regular Gallai trees with d ≥ 3 are K_{d+1}), and
// the peeled vertices are re-colored greedily in reverse.
func SparseListColor(g *graph.Graph, d int, lists [][]int) ([]int, error) {
	n := g.N()
	if d < 3 {
		return nil, fmt.Errorf("seqcolor: Theorem 1.2 needs d ≥ 3, got %d", d)
	}
	for v := 0; v < n; v++ {
		if len(lists[v]) < d {
			return nil, fmt.Errorf("seqcolor: vertex %d has list of size %d < d=%d", v, len(lists[v]), d)
		}
	}
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(v)
	}
	// Peel vertices of degree ≤ d−1 (stack records removal order).
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	for v := 0; v < n; v++ {
		if deg[v] <= d-1 {
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if !alive[v] {
			continue
		}
		alive[v] = false
		stack = append(stack, v)
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if alive[w] {
				deg[w]--
				if deg[w] <= d-1 && !inQueue[w] {
					queue = append(queue, w)
					inQueue[w] = true
				}
			}
		}
	}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = Uncolored
	}
	// Remaining components are d-regular (mad ≤ d forces it). A component
	// equal to K_{d+1} is the excluded clique; otherwise Theorem 1.1 applies.
	compMask := make([]bool, n)
	var w Workspace
	for _, comp := range g.Components(alive) {
		if len(comp) == d+1 && g.IsClique(comp) {
			return nil, &CliqueError{Clique: comp}
		}
		for _, v := range comp {
			compMask[v] = true
		}
		err := w.colorComponent(g, colors, Given(lists), comp, compMask)
		for _, v := range comp {
			compMask[v] = false
		}
		if err != nil {
			return nil, fmt.Errorf("seqcolor: d-regular core: %w", err)
		}
	}
	// Unwind the peel: each popped vertex had ≤ d−1 neighbors at removal,
	// all of which are the only ones colored after it, so a list of size d
	// always has a free color.
	slices.Reverse(stack)
	if err := w.GreedyInOrder(g, colors, Given(lists), stack); err != nil {
		return nil, fmt.Errorf("seqcolor: internal: peel unwind: %w", err)
	}
	return colors, nil
}

// ListColorableBrute decides by exhaustive backtracking whether g admits a
// proper coloring from the given lists, returning one if so. Exponential:
// tests and tiny lower-bound instances only.
func ListColorableBrute(g *graph.Graph, lists [][]int) ([]int, bool) {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = Uncolored
	}
	// Order by decreasing degree for better pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && g.Degree(order[j]) > g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		v := order[i]
		for _, c := range lists[v] {
			ok := true
			for _, w := range g.Neighbors(v) {
				if colors[int(w)] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(i + 1) {
					return true
				}
				colors[v] = Uncolored
			}
		}
		return false
	}
	if rec(0) {
		return colors, true
	}
	return nil, false
}
