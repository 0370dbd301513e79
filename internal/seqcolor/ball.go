package seqcolor

import (
	"slices"

	"distcolor/internal/graph"
)

// ColorSurplusBall colors the vertices of ball, all uncolored, exactly as
// DegreeListColor colors the subgraph of g induced by ball (vertex i being
// ball[i]) from the effective lists, when that subgraph is connected and
// has a surplus vertex. It runs on g's rows, with no copy and no effective
// lists: it reads ball neighbors in ascending ball index, the order of the
// copy's sorted rows, and a colored neighbor outside the ball blocks on g
// just the colors the effective list drops.
//
// Otherwise it reports false, leaves the ball uncolored and the caller
// takes the induced path, whose errors name vertices by ball index: the
// subgraph is tight or disconnected; ball holds an out-of-range, repeated
// or colored vertex; a list has a color listWidth rejects; an effective
// list is shorter than the vertex's degree in the ball; or the greedy gets
// stuck, which a list repeating a color can cause.
//
// A connected ball must list the BFS, from ball[0], of the subgraph it
// induces, as g.AppendBall carves it: that is the copy's component walk,
// so ball's own order picks the same surplus vertex the copy would. A ball
// the surplus vertex's BFS does not cover is disconnected.
func (w *Workspace) ColorSurplusBall(g *graph.Graph, colors []int, lists [][]int, ball []int) bool {
	if !w.indexBall(g, colors, ball) {
		return false
	}
	defer w.unindexBall(ball)
	// Pass 1, in ball order: every effective list must cover the vertex's
	// degree in the ball, and the first vertex it exceeds is the surplus.
	surplus := -1
	for _, v := range ball {
		free, deg, ok := w.ballSlack(g, colors, lists[v], v)
		if !ok || free < deg {
			return false
		}
		if free > deg && surplus == -1 {
			surplus = v
		}
	}
	if surplus == -1 {
		return false
	}
	order := w.ballBFS(g, surplus, grow(w.order, len(ball))[:0])
	w.order = order
	if len(order) < len(ball) {
		return false // disconnected
	}
	slices.Reverse(order)
	if greedyInOrder(g, colors, lists, order, &w.b) != nil {
		for _, v := range ball {
			colors[v] = Uncolored
		}
		return false
	}
	return true
}

// indexBall writes each ball vertex's 1-based position in ball into w.at.
// It reports false, with w.at left all 0, when a vertex is out of range,
// listed twice or colored.
func (w *Workspace) indexBall(g *graph.Graph, colors []int, ball []int) bool {
	if len(w.at) < g.N() {
		w.at = make([]int32, g.N())
	}
	for i, v := range ball {
		if v < 0 || v >= g.N() || w.at[v] != 0 || colors[v] != Uncolored {
			w.unindexBall(ball[:i])
			return false
		}
		w.at[v] = int32(i + 1)
	}
	return true
}

// unindexBall clears the w.at entries of ball.
func (w *Workspace) unindexBall(ball []int) {
	for _, v := range ball {
		w.at[v] = 0
	}
}

// ballSlack returns the size of v's effective list — the colors of list,
// with repeats, that no colored neighbor uses — and v's degree in the
// indexed ball: its uncolored degree in the induced subgraph, where
// uncolored neighbors outside the ball do not count. ok is false when
// listWidth rejects list.
func (w *Workspace) ballSlack(g *graph.Graph, colors []int, list []int, v int) (free, deg int, ok bool) {
	width := listWidth(list)
	if width < 0 {
		return 0, 0, false
	}
	b := &w.b
	b.Reset(width)
	for _, u := range g.Neighbors(v) {
		if w.at[u] != 0 {
			deg++
		} else if c := colors[u]; c >= 0 && c < width {
			b.Set(c)
		}
	}
	for _, c := range list {
		if !b.Test(c) {
			free++
		}
	}
	return free, deg, true
}

// ballBFS appends to dst the indexed ball's vertices reached from src over
// the ball, in BFS order, each vertex's ball neighbors taken in ascending
// ball index: the order a Traversal of the induced subgraph reads from its
// sorted rows. It marks a reached vertex by negating its w.at entry and
// restores the marks before returning. dst must have room for the ball.
func (w *Workspace) ballBFS(g *graph.Graph, src int, dst []int) []int {
	at := w.at
	start := len(dst)
	at[src] = -at[src]
	dst = append(dst, src)
	for head := start; head < len(dst); head++ {
		tail := len(dst)
		for _, u := range g.Neighbors(dst[head]) {
			if at[u] > 0 {
				at[u] = -at[u]
				dst = append(dst, int(u))
			}
		}
		// Insertion sort of the new tail by ball index, -at once marked.
		for i := tail + 1; i < len(dst); i++ {
			u := dst[i]
			j := i
			for ; j > tail && at[dst[j-1]] < at[u]; j-- {
				dst[j] = dst[j-1]
			}
			dst[j] = u
		}
	}
	for _, u := range dst[start:] {
		at[u] = -at[u]
	}
	return dst
}
