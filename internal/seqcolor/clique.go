package seqcolor

import (
	"errors"

	"distcolor/internal/graph"
)

// ErrNoColoring reports that an instance is certifiably not list-colorable.
var ErrNoColoring = errors.New("seqcolor: no list coloring exists")

// CliqueListColor list-colors a clique on the given vertices: feasible iff
// the lists admit a system of distinct representatives (Hall's condition),
// decided by bipartite augmenting-path matching. colors is updated in place
// on success; ErrNoColoring is returned otherwise. This is how Corollary 2.1
// "finds that no such coloring exists" on K_{Δ+1} components.
func CliqueListColor(g *graph.Graph, verts []int, colors []int, lists Lists) error {
	// Palette index.
	palette := map[int]int{}
	var colorVals []int
	for _, v := range verts {
		for _, c := range lists.Of(v) {
			if _, ok := palette[c]; !ok {
				palette[c] = len(colorVals)
				colorVals = append(colorVals, c)
			}
		}
	}
	// matchOf[colorIdx] = vertex position or -1.
	matchOf := make([]int, len(colorVals))
	for i := range matchOf {
		matchOf[i] = -1
	}
	var try func(pos int, visited []bool) bool
	try = func(pos int, visited []bool) bool {
		for _, c := range lists.Of(verts[pos]) {
			ci := palette[c]
			if visited[ci] {
				continue
			}
			visited[ci] = true
			if matchOf[ci] == -1 || try(matchOf[ci], visited) {
				matchOf[ci] = pos
				return true
			}
		}
		return false
	}
	for pos := range verts {
		visited := make([]bool, len(colorVals))
		if !try(pos, visited) {
			return ErrNoColoring
		}
	}
	for ci, pos := range matchOf {
		if pos != -1 {
			colors[verts[pos]] = colorVals[ci]
		}
	}
	return nil
}
