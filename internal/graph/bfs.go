package graph

import "sync"

// Traversal is a reusable breadth-first-search workspace. All per-vertex
// state is epoch-stamped, so starting a new search is O(1) — no per-call
// allocation and no O(n) clearing — which matters in the hot loops (ruling
// forests, happy-set classification, ball carving) that run thousands of
// bounded searches.
//
// A Traversal is owned by one goroutine at a time. Obtain one with
// AcquireTraversal and hand it back with ReleaseTraversal; the package's
// own wrappers (Ball, Components, …) do the same.
type Traversal struct {
	g      *Graph
	dist   []int32
	parent []int32
	mark   []uint32
	epoch  uint32
	queue  []int32
}

// traversalPool holds idle traversals of any graph: one package-level pool
// serves every graph, so the thousands of small induced graphs the root-ball
// recoloring builds reuse the workspaces of the graphs before them.
var traversalPool sync.Pool

// AcquireTraversal takes a traversal workspace from the package pool and
// binds it to g, growing its arrays when g is larger than any graph the
// workspace served before. Rebinding needs no clearing: every stamp a
// previous graph left is older than the epoch of the next Run. Pair with
// ReleaseTraversal when done; external hot loops should use this rather
// than allocating per call.
func (g *Graph) AcquireTraversal() *Traversal {
	t, _ := traversalPool.Get().(*Traversal)
	if t == nil {
		t = &Traversal{}
	}
	t.bind(g)
	return t
}

// bind points t at g, growing its per-vertex arrays to g's size. Fresh
// marks are 0, below every epoch a Run stamps, so growth needs no care.
func (t *Traversal) bind(g *Graph) {
	t.g = g
	if n := g.N(); n > len(t.mark) {
		t.dist = make([]int32, n)
		t.parent = make([]int32, n)
		t.mark = make([]uint32, n)
	}
}

// ReleaseTraversal returns a workspace obtained from AcquireTraversal to the
// pool. The traversal must not be used afterwards. It drops its graph, so a
// pooled workspace never keeps a graph (or the file mapping behind one)
// alive.
func (g *Graph) ReleaseTraversal(t *Traversal) {
	t.g = nil
	traversalPool.Put(t)
}

// Run executes a BFS from sources, restricted to vertices with
// mask[v] == true (nil mask = all), up to the given radius (negative =
// unbounded). Previous results in the workspace are invalidated. Sources
// outside the mask, and duplicate sources, are ignored.
func (t *Traversal) Run(sources []int, mask []bool, radius int) {
	if t.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² runs
		clear(t.mark)
		t.epoch = 0
	}
	t.epoch++
	t.queue = t.queue[:0]
	for _, s := range sources {
		if mask != nil && !mask[s] {
			continue
		}
		if t.mark[s] == t.epoch {
			continue
		}
		t.mark[s] = t.epoch
		t.dist[s] = 0
		t.parent[s] = -1
		t.queue = append(t.queue, int32(s))
	}
	offsets, neighbors := t.g.offsets, t.g.neighbors
	for head := 0; head < len(t.queue); head++ {
		v := t.queue[head]
		d := t.dist[v]
		if radius >= 0 && int(d) >= radius {
			continue
		}
		for _, w := range neighbors[offsets[v]:offsets[v+1]] {
			if mask != nil && !mask[w] {
				continue
			}
			if t.mark[w] == t.epoch {
				continue
			}
			t.mark[w] = t.epoch
			t.dist[w] = d + 1
			t.parent[w] = v
			t.queue = append(t.queue, w)
		}
	}
}

// Reached reports whether v was reached by the last Run.
func (t *Traversal) Reached(v int) bool { return t.mark[v] == t.epoch }

// Dist returns v's BFS distance from the last Run's sources, or -1 if
// unreached.
func (t *Traversal) Dist(v int) int {
	if t.mark[v] != t.epoch {
		return -1
	}
	return int(t.dist[v])
}

// Parent returns v's BFS-tree parent from the last Run, or -1 for sources
// and unreached vertices.
func (t *Traversal) Parent(v int) int {
	if t.mark[v] != t.epoch {
		return -1
	}
	return int(t.parent[v])
}

// Order returns the vertices reached by the last Run in nondecreasing
// distance: the search queue itself, which holds every reached vertex
// once, in visit order. The slice is valid until the next Run; callers
// must not modify it.
func (t *Traversal) Order() []int32 { return t.queue }

// MaxDist returns the largest distance reached by the last Run (0 when
// nothing was reached).
func (t *Traversal) MaxDist() int {
	if len(t.queue) == 0 {
		return 0
	}
	return int(t.dist[t.queue[len(t.queue)-1]])
}

// BFSResult holds the outcome of a breadth-first search.
type BFSResult struct {
	// Dist[v] is the distance from the source set, or -1 if unreachable
	// (or excluded by the mask / radius cap).
	Dist []int
	// Parent[v] is the BFS-tree parent, or -1 for sources/unreached.
	Parent []int
	// Order lists reached vertices in nondecreasing distance.
	Order []int
}

// BFS runs a breadth-first search from the given sources, restricted to
// vertices with mask[v] == true (nil mask = all vertices), up to the given
// radius (negative radius = unbounded). Sources outside the mask are ignored.
//
// BFS materializes full O(n) result arrays; inner loops that run many
// searches over the same graph should hold a Traversal instead.
func (g *Graph) BFS(sources []int, mask []bool, radius int) BFSResult {
	n := g.N()
	t := g.AcquireTraversal()
	t.Run(sources, mask, radius)
	res := BFSResult{
		Dist:   make([]int, n),
		Parent: make([]int, n),
		Order:  make([]int, 0, len(t.queue)),
	}
	for v := range res.Dist {
		res.Dist[v] = -1
		res.Parent[v] = -1
	}
	for _, v32 := range t.queue {
		v := int(v32)
		res.Dist[v] = int(t.dist[v32])
		res.Parent[v] = int(t.parent[v32])
		res.Order = append(res.Order, v)
	}
	g.ReleaseTraversal(t)
	return res
}

// Ball returns the set of vertices at distance ≤ radius from v within the
// mask (nil mask = whole graph), in BFS order. If mask excludes v the ball is
// empty, matching the paper's convention for B_R(v) with v ∉ R.
func (g *Graph) Ball(v int, radius int, mask []bool) []int {
	return g.AppendBall(nil, v, radius, mask)
}

// AppendBall appends Ball(v, radius, mask) to dst and returns the extended
// slice, so a caller carving many balls can reuse one buffer. When dst must
// grow, the new array holds exactly the result.
func (g *Graph) AppendBall(dst []int, v int, radius int, mask []bool) []int {
	if mask != nil && !mask[v] {
		return dst
	}
	t := g.AcquireTraversal()
	t.Run([]int{v}, mask, radius)
	if need := len(dst) + len(t.queue); need > cap(dst) {
		dst = append(make([]int, 0, need), dst...)
	}
	for _, u := range t.queue {
		dst = append(dst, int(u))
	}
	g.ReleaseTraversal(t)
	return dst
}

// Eccentricity returns the maximum distance from v to any vertex reachable
// within the mask. Returns 0 for isolated v.
func (g *Graph) Eccentricity(v int, mask []bool) int {
	t := g.AcquireTraversal()
	t.Run([]int{v}, mask, -1)
	ecc := t.MaxDist()
	g.ReleaseTraversal(t)
	return ecc
}

// Components returns the connected components as vertex lists, restricted to
// the mask (nil = all). Each component's vertices appear in BFS order.
func (g *Graph) Components(mask []bool) [][]int {
	n := g.N()
	seen := make([]bool, n)
	t := g.AcquireTraversal()
	var comps [][]int
	for v := 0; v < n; v++ {
		if seen[v] || (mask != nil && !mask[v]) {
			continue
		}
		t.Run([]int{v}, mask, -1)
		comp := make([]int, len(t.queue))
		for i, u := range t.queue {
			comp[i] = int(u)
			seen[u] = true
		}
		comps = append(comps, comp)
	}
	g.ReleaseTraversal(t)
	return comps
}

// IsConnected reports whether the graph restricted to mask (nil = all,
// counting only masked vertices) is connected. Empty graphs count as
// connected.
func (g *Graph) IsConnected(mask []bool) bool {
	n := g.N()
	t := g.AcquireTraversal()
	defer g.ReleaseTraversal(t)
	for v := 0; v < n; v++ {
		if mask != nil && !mask[v] {
			continue
		}
		t.Run([]int{v}, mask, -1)
		reached := len(t.queue)
		total := 0
		if mask == nil {
			total = n
		} else {
			for u := 0; u < n; u++ {
				if mask[u] {
					total++
				}
			}
		}
		return reached == total
	}
	return true // no masked vertices: empty graph is connected
}

// Diameter returns the exact diameter of the (assumed connected) masked
// graph by running a BFS from every masked vertex. O(n·m); intended for
// analysis and tests, not inner loops.
func (g *Graph) Diameter(mask []bool) int {
	d := 0
	t := g.AcquireTraversal()
	for v := 0; v < g.N(); v++ {
		if mask != nil && !mask[v] {
			continue
		}
		t.Run([]int{v}, mask, -1)
		if e := t.MaxDist(); e > d {
			d = e
		}
	}
	g.ReleaseTraversal(t)
	return d
}

// IsBipartite reports whether the masked graph is bipartite, and returns a
// 2-coloring (side[v] ∈ {0,1}; -1 outside mask/unreached) when it is.
func (g *Graph) IsBipartite(mask []bool) (bool, []int) {
	n := g.N()
	side := make([]int, n)
	for i := range side {
		side[i] = -1
	}
	for s := 0; s < n; s++ {
		if side[s] != -1 || (mask != nil && !mask[s]) {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if mask != nil && !mask[w] {
					continue
				}
				if side[w] == -1 {
					side[w] = 1 - side[v]
					queue = append(queue, w)
				} else if side[w] == side[v] {
					return false, nil
				}
			}
		}
	}
	return true, side
}
