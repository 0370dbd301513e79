package seqcolor

import (
	"slices"

	"distcolor/internal/graph"
)

// ColorBall colors the vertices of ball, all uncolored, exactly as
// DegreeListColor colors the subgraph of g induced by ball (vertex i being
// ball[i]) from the effective lists, when that subgraph is connected and
// either has a surplus vertex or, with oneBlock, is tight and takes step
// (b) or the Brooks fast path of colorTwoConnectedTight. It runs on g's
// rows, with no copy: it reads ball neighbors in ascending ball index, the
// order of the copy's sorted rows, and a colored neighbor outside the ball
// blocks on g just the colors the effective list drops. oneBlock tells
// that the subgraph is one bad block: 2-connected, neither complete nor an
// odd cycle.
//
// Otherwise it reports false, leaves the ball uncolored and the caller
// takes the induced path, whose errors name vertices by ball index: the
// subgraph is disconnected, or tight and not oneBlock; a tight ball is not
// regular, has degree 2 (an even cycle) or exhausts the Brooks fast path;
// ball holds an out-of-range, repeated or colored vertex; a list of a ball
// that does not span g has a color listWidth rejects; an effective list is
// shorter than the vertex's degree in the ball; or the greedy gets stuck,
// which a list repeating a color can cause.
//
// A connected ball must list the BFS, from ball[0], of the subgraph it
// induces, as Traversal.AppendBall carves it: that is the copy's component
// walk, so ball's own order picks the same vertices the copy would.
func (w *Workspace) ColorBall(g *graph.Graph, colors []int, lists [][]int, ball []int, oneBlock bool) bool {
	if len(ball) == 0 || !w.indexBall(g, colors, ball) {
		return false
	}
	defer w.unindexBall(ball)
	spanning := len(ball) == g.N()
	// Pass 1: every effective list must cover its vertex's degree in the
	// ball, and the surplus vertex is the first, in ball order, whose list
	// exceeds it.
	surplus := -1
	if spanning {
		var ok bool
		if surplus, ok = w.spanningSurplus(g, lists); !ok {
			return false
		}
	} else {
		for _, v := range ball {
			free, deg, ok := w.ballSlack(g, colors, lists[v], v)
			if !ok || free < deg {
				return false
			}
			if free > deg && surplus == -1 {
				surplus = v
			}
		}
	}
	if surplus != -1 {
		if len(w.reach(g, ball, surplus, -1, -1)) < len(ball) {
			return false // disconnected
		}
		return w.finish(g, colors, lists, ball)
	}
	return oneBlock && w.colorTightBall(g, colors, lists, ball, spanning)
}

// spanningSurplus is pass 1 for an indexed ball that spans g. Nothing is
// colored, so every effective list is the list itself and every ball
// degree the degree: they are read in vertex order, and the surplus vertex
// is the one of least ball index; -1 when there is none. ok is false when
// a list is shorter than its vertex's degree.
func (w *Workspace) spanningSurplus(g *graph.Graph, lists [][]int) (surplus int, ok bool) {
	surplus = -1
	for v := range g.N() {
		free, deg := len(lists[v]), g.Degree(v)
		if free < deg {
			return -1, false
		}
		if free > deg && (surplus == -1 || w.at[v] < w.at[surplus]) {
			surplus = v
		}
	}
	return surplus, true
}

// colorTightBall is colorTwoConnectedTight's steps (b) and (c) on the
// indexed ball, one bad block whose effective lists are all tight.
func (w *Workspace) colorTightBall(g *graph.Graph, colors []int, lists [][]int, ball []int, spanning bool) bool {
	// eff holds the effective lists: by vertex when the ball spans g, where
	// they are the lists, and by ball index otherwise.
	eff := lists[:len(ball)]
	if !spanning {
		eff = w.EffectiveLists(g, colors, lists, ball)
	}
	at := w.at
	effOf := func(v int) []int {
		if spanning {
			return eff[v]
		}
		return eff[at[v]-1]
	}
	// (b) an edge (u, x) with a color a ∈ L(u) \ L(x): color u with a, and
	// x gains a surplus in the ball less u.
	if !sameLists(eff) {
		for _, u := range ball {
			for _, x := range w.ballNeighbors(g, u) {
				a, ok := colorInFirstNotSecond(effOf(u), effOf(x))
				if !ok {
					continue
				}
				if len(w.reach(g, ball, x, u, -1)) < len(ball)-1 {
					return false
				}
				colors[u] = a
				return w.finish(g, colors, lists, ball)
			}
		}
	}
	// (c) the Brooks fast path: a k-regular ball, k ≥ 3, and neighbors a, b
	// of some z, non-adjacent, whose removal leaves the ball connected. a
	// and b share a color and z is colored last. Tight lists are as long
	// as their vertices' degrees, so equal lengths mean a regular ball.
	k := len(eff[0])
	if k < 3 || slices.ContainsFunc(eff, func(l []int) bool { return len(l) != k }) {
		return false
	}
	tried := 0
	for _, z := range ball {
		nbrs := w.ballNeighbors(g, z)
		for i, a := range nbrs {
			for _, b := range nbrs[i+1:] {
				if g.HasEdge(a, b) {
					continue
				}
				if tried++; tried > brooksTries {
					return false
				}
				if len(w.reach(g, ball, z, a, b)) == len(ball)-2 {
					c := effOf(a)[0]
					colors[a], colors[b] = c, c
					return w.finish(g, colors, lists, ball)
				}
			}
		}
	}
	return false
}

// ballNeighbors returns v's neighbors in the indexed ball in ascending ball
// index, in w.nbrs.
func (w *Workspace) ballNeighbors(g *graph.Graph, v int) []int {
	nbrs := w.nbrs[:0]
	for _, u := range g.Neighbors(v) {
		if w.at[u] != 0 {
			nbrs = append(nbrs, int(u))
		}
	}
	for i := 1; i < len(nbrs); i++ {
		u := nbrs[i]
		j := i
		for ; j > 0 && w.at[nbrs[j-1]] > w.at[u]; j-- {
			nbrs[j] = nbrs[j-1]
		}
		nbrs[j] = u
	}
	w.nbrs = nbrs
	return nbrs
}

// reach returns, in w.order, the BFS of the indexed ball from src over the
// ball less x and y (-1 for none).
func (w *Workspace) reach(g *graph.Graph, ball []int, src, x, y int) []int {
	at := w.at
	for _, v := range [2]int{x, y} {
		if v != -1 {
			at[v] = -at[v]
		}
	}
	w.order = w.ballBFS(g, src, grow(w.order, len(ball))[:0])
	for _, v := range [2]int{x, y} {
		if v != -1 {
			at[v] = -at[v]
		}
	}
	return w.order
}

// finish colors the vertices of w.order greedily from the last, as the
// reverse BFS order the copy colors in. When the greedy gets stuck it
// uncolors the whole ball and reports false.
func (w *Workspace) finish(g *graph.Graph, colors []int, lists [][]int, ball []int) bool {
	slices.Reverse(w.order)
	if greedyInOrder(g, colors, lists, w.order, &w.b) != nil {
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
// restores the marks before returning; a vertex marked on entry is never
// reached. dst must have room for the ball.
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
