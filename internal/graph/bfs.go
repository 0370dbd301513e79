package graph

// Traversal is the graph package's walk scratch: breadth-first searches
// (Run, AppendBall, CarveBalls), block DFSes (Blocks, IsGallaiForest) and
// induced copies (InducedInto) on the graph it is bound to. All per-vertex
// search state is epoch-stamped, so starting a new search is O(1) — no
// per-call allocation and no O(n) clearing — which matters in the hot
// loops (ruling forests, happy-set classification, ball carving) that run
// thousands of bounded searches.
//
// The zero value is ready for Bind, and the caller owns it: a Traversal is
// used by one goroutine at a time, and a caller that runs in a loop keeps
// one across its calls. Run, CarveBalls and InducedInto invalidate the
// last search (InducedInto stamps its vertex index into the search's
// arrays). A block DFS does not: its records and stacks are separate,
// allocated by the first DFS, so a DFS may walk the last search's Order,
// and a traversal that only searches never pays for them.
type Traversal struct {
	g      *Graph
	dist   []int32
	parent []int32
	mark   []uint32
	epoch  uint32
	queue  []int32
	// The block DFS's state; see blocksDFS.
	vs       []dfsVert
	estack   []blockEdge
	stack    []int32
	blkVerts []int
}

// Bind points t at g and returns t, growing its per-vertex search arrays,
// the queue included, only when g is larger than every graph t served
// before. Rebinding needs no clearing: every stamp a previous graph left
// is older than the epoch of the next search, and fresh marks are 0, below
// every epoch.
func (t *Traversal) Bind(g *Graph) *Traversal {
	t.g = g
	if n := g.N(); n > len(t.mark) {
		t.dist = make([]int32, n)
		t.parent = make([]int32, n)
		t.mark = make([]uint32, n)
		t.queue = make([]int32, 0, n)
	}
	return t
}

// nextEpoch starts a new search's stamps and returns its epoch.
func (t *Traversal) nextEpoch() uint32 {
	if t.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² searches
		clear(t.mark)
		t.epoch = 0
	}
	t.epoch++
	return t.epoch
}

// Run executes a BFS from sources, restricted to vertices with
// mask[v] == true (nil mask = all), up to the given radius (negative =
// unbounded). Previous results in the workspace are invalidated. Sources
// outside the mask, and duplicate sources, are ignored.
func (t *Traversal) Run(sources []int, mask []bool, radius int) {
	t.nextEpoch()
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
	t := new(Traversal).Bind(g)
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
	return res
}

// Ball returns the set of vertices at distance ≤ radius from v within the
// mask (nil mask = whole graph), in BFS order. If mask excludes v the ball is
// empty, matching the paper's convention for B_R(v) with v ∉ R. It runs on
// a fresh Traversal; a caller carving many balls holds one and calls its
// AppendBall.
func (g *Graph) Ball(v int, radius int, mask []bool) []int {
	return new(Traversal).Bind(g).AppendBall(nil, v, radius, mask)
}

// AppendBall appends Ball(v, radius, mask) to dst and returns the extended
// slice, so a caller carving many balls can reuse one buffer. When dst must
// grow, the new array holds exactly the result.
func (t *Traversal) AppendBall(dst []int, v int, radius int, mask []bool) []int {
	if mask != nil && !mask[v] {
		return dst
	}
	t.Run([]int{v}, mask, radius)
	if need := len(dst) + len(t.queue); need > cap(dst) {
		dst = append(make([]int, 0, need), dst...)
	}
	for _, u := range t.queue {
		dst = append(dst, int(u))
	}
	return dst
}

// CarveBalls consumes the last Run: it groups the vertices that search
// reached within distance radius (negative = unbounded) by the source
// whose BFS tree holds them, in one pass over the search order and one
// over the groups' sizes. Group i, dst[ends[i-1]:ends[i]] (from 0 for
// i = 0), belongs to the search's i-th source (Order()[i]: Run keeps its
// sources first, in the order given) and lists its vertices in search
// order. dst and ends are reused, and grown to exactly the need when too
// short.
//
// When the sources are pairwise more than 2·radius apart in the search's
// mask, group i is exactly AppendBall(nil, source i, radius, mask), in
// the same order: a vertex at distance k ≤ radius from a source is
// farther from every other source, and so is each neighbor at distance
// k−1 that could discover it, so the multi-source search visits each
// source's ball as the single-source search does. The search's parents
// are overwritten, so t holds no search afterwards.
func (t *Traversal) CarveBalls(dst []int32, ends []int32, radius int) ([]int32, []int32) {
	order := t.queue
	sources := 0
	for sources < len(order) && t.dist[order[sources]] == 0 {
		sources++
	}
	if cap(ends) < sources {
		ends = make([]int32, sources)
	}
	ends = ends[:sources]
	clear(ends)
	// Each vertex's group replaces its parent, which the search order
	// lists first; ends counts each group's size.
	reach := 0
	for ; reach < len(order); reach++ {
		v := order[reach]
		if radius >= 0 && int(t.dist[v]) > radius {
			break
		}
		if reach < sources {
			t.parent[v] = int32(reach)
		} else {
			t.parent[v] = t.parent[t.parent[v]]
		}
		ends[t.parent[v]]++
	}
	// A stable counting sort: ends turns into group starts, then advances
	// to the group ends as the groups fill.
	start := int32(0)
	for i, size := range ends {
		ends[i] = start
		start += size
	}
	if cap(dst) < reach {
		dst = make([]int32, reach)
	}
	dst = dst[:reach]
	for _, v := range order[:reach] {
		g := t.parent[v]
		dst[ends[g]] = v
		ends[g]++
	}
	t.queue = t.queue[:0]
	t.nextEpoch()
	return dst, ends
}

// Eccentricity returns the maximum distance from v to any vertex reachable
// within the mask. Returns 0 for isolated v.
func (g *Graph) Eccentricity(v int, mask []bool) int {
	t := new(Traversal).Bind(g)
	t.Run([]int{v}, mask, -1)
	return t.MaxDist()
}

// Components returns the connected components as vertex lists, restricted to
// the mask (nil = all). Each component's vertices appear in BFS order.
func (g *Graph) Components(mask []bool) [][]int {
	n := g.N()
	seen := make([]bool, n)
	t := new(Traversal).Bind(g)
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
	return comps
}

// IsConnected reports whether the graph restricted to mask (nil = all,
// counting only masked vertices) is connected. Empty graphs count as
// connected.
func (g *Graph) IsConnected(mask []bool) bool {
	n := g.N()
	t := new(Traversal).Bind(g)
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
	t := new(Traversal).Bind(g)
	for v := 0; v < g.N(); v++ {
		if mask != nil && !mask[v] {
			continue
		}
		t.Run([]int{v}, mask, -1)
		if e := t.MaxDist(); e > d {
			d = e
		}
	}
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
