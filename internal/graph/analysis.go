package graph

import "slices"

// Girth returns the length of a shortest cycle in the masked graph, or -1
// if the graph is a forest. Runs a BFS from every vertex: O(n·m). When a BFS
// from v finds an edge between two vertices x,y with dist(x)+dist(y)+1 < best
// it updates the bound; this yields the exact girth (the standard argument:
// a shortest cycle through its own vertex is detected exactly).
func (g *Graph) Girth(mask []bool) int {
	best := -1
	n := g.N()
	dist := make([]int, n)
	par := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if mask != nil && !mask[s] {
			continue
		}
		for i := range dist {
			dist[i] = -1
			par[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != -1 && 2*dist[v] >= best {
				break
			}
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if mask != nil && !mask[w] {
					continue
				}
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] && par[w] != v {
					// Non-tree edge: cycle through s of length ≤ d(v)+d(w)+1.
					c := dist[v] + dist[w] + 1
					if best == -1 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// DegeneracyResult describes a degeneracy (smallest-last) ordering.
type DegeneracyResult struct {
	// Degeneracy is the maximum, over the elimination order, of the degree
	// of the removed vertex at removal time.
	Degeneracy int
	// Order is the elimination order (a vertex's "later" neighbors are the
	// ones appearing after it).
	Order []int
	// Pos[v] is v's index in Order.
	Pos []int
}

// Degeneracy computes the degeneracy and a smallest-last order of the graph
// with the bucket queue of smallestLast, in O(n + m). DegeneracyOrder
// caches it.
func (g *Graph) Degeneracy() DegeneracyResult {
	var s smallestLast
	s.init(g)
	res := DegeneracyResult{
		Order: make([]int, 0, g.N()),
		Pos:   make([]int, g.N()),
	}
	for v, deg := s.pop(); v >= 0; v, deg = s.pop() {
		res.Degeneracy = max(res.Degeneracy, deg)
		res.Pos[v] = len(res.Order)
		res.Order = append(res.Order, v)
	}
	return res
}

// DegeneracyOrder returns the degeneracy result, computed once and cached —
// Graph is immutable, so repeated callers (low-degree peeling, baselines)
// share one computation.
func (g *Graph) DegeneracyOrder() DegeneracyResult {
	g.degenOnce.Do(func() { g.degen = g.Degeneracy() })
	return g.degen
}

// smallestLast is the elimination behind Degeneracy and FindCliqueDPlus1.
// Bucket d is a doubly linked list of the remaining vertices of degree d,
// newest first: the initial fill pushes in vertex order and a decrement
// moves the vertex to the front of its new bucket, so pop takes the vertex
// that entered the lowest nonempty bucket last (LIFO). min is lowered on
// every decrement and rises only past empty buckets, and a removal lowers
// it by at most one, so a whole elimination costs O(n + m + Δ).
//
// deg[v] is v's degree among the vertices not yet removed (-1 once
// removed), and next[v], prev[v] its links in its bucket's list. The three
// share one allocation, unless coreSize made the first two.
type smallestLast struct {
	g               *Graph
	deg, next, prev []int32
	head            []int32 // head[d] is bucket d's newest vertex, -1 when empty
	min             int
}

// init fills the buckets with every vertex of g, on coreSize's arrays if
// it ran.
func (s *smallestLast) init(g *Graph) {
	s.g = g
	n := g.N()
	if s.deg == nil {
		buf := make([]int32, 3*n)
		s.deg, s.next, s.prev = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	} else {
		s.prev = make([]int32, n)
	}
	s.head = make([]int32, g.MaxDegree()+1)
	for d := range s.head {
		s.head[d] = -1
	}
	for v := range s.deg {
		s.deg[v] = int32(g.Degree(v))
		s.push(int32(v))
	}
}

// coreSize returns the size of the d-core of g, in O(n + m): it drops
// every vertex of degree < d, then every vertex whose degree falls below d
// as its neighbors go. A vertex's excess over degree d-1 falls by one per
// dropped neighbor, so it is queued when that reaches 0, once, with no
// test of whether a neighbor is gone. The excesses and the queue are deg
// and next, which init then reuses.
func (s *smallestLast) coreSize(g *Graph, d int) int {
	n := g.N()
	buf := make([]int32, 2*n)
	excess, queue := buf[:n:n], buf[n:]
	s.deg, s.next = excess, queue
	tail := 0
	for v := range excess {
		if excess[v] = int32(g.Degree(v) - (d - 1)); excess[v] <= 0 {
			queue[tail] = int32(v)
			tail++
		}
	}
	for h := 0; h < tail; h++ {
		for _, w := range g.Neighbors(int(queue[h])) {
			if excess[w]--; excess[w] == 0 {
				queue[tail] = w
				tail++
			}
		}
	}
	return n - tail
}

// push puts v at the front of the bucket of its degree.
func (s *smallestLast) push(v int32) {
	d := s.deg[v]
	next := s.head[d]
	s.prev[v], s.next[v] = -1, next
	if next >= 0 {
		s.prev[next] = v
	}
	s.head[d] = v
}

// unlink takes v out of the bucket of its degree.
func (s *smallestLast) unlink(v int32) {
	prev, next := s.prev[v], s.next[v]
	if prev >= 0 {
		s.next[prev] = next
	} else {
		s.head[s.deg[v]] = next
	}
	if next >= 0 {
		s.prev[next] = prev
	}
}

// pop removes the next vertex of the order and returns it with its degree
// at removal, or -1 once every vertex is gone. Afterwards v's later
// neighbors are exactly its neighbors w with deg[w] ≥ 0.
func (s *smallestLast) pop() (v, deg int) {
	for s.min < len(s.head) && s.head[s.min] < 0 {
		s.min++
	}
	if s.min == len(s.head) {
		return -1, 0
	}
	v32, deg := s.head[s.min], s.min
	s.unlink(v32)
	s.deg[v32] = -1
	for _, w := range s.g.Neighbors(int(v32)) {
		if s.deg[w] < 0 {
			continue // removed, or outside the mask
		}
		s.unlink(w)
		s.deg[w]--
		s.push(w)
		s.min = min(s.min, int(s.deg[w]))
	}
	return int(v32), deg
}

// FindCliqueDPlus1 searches for a clique on d+1 vertices. In a graph of
// degeneracy ≤ d, any K_{d+1} appears as the earliest-eliminated member v of
// the clique together with exactly its d "later" neighbors; so checking, for
// each v in a degeneracy order, whether v's later neighborhood has size ≥ d
// and contains a d-subset that is a clique with v finds it. To stay
// polynomial we only test the case |later(v)| == d exactly when degeneracy
// ≤ d (the paper's setting: mad(G) ≤ d ⇒ degeneracy ≤ d, and then a K_{d+1}
// member's later neighborhood has size exactly d). Returns nil if none found.
//
// The test runs inside the elimination, as each vertex is removed: its
// later neighbors are then its remaining neighbors, as many as its degree
// at removal. The search stops at the first clique and keeps no order.
//
// A vertex is tested only when it leaves with degree ≥ d, and then every
// vertex left has degree ≥ d, so all of them lie in the d-core. When the
// d-core is empty (a planar graph at d = 6, any graph at d > Δ), no vertex
// is ever tested, and an O(n + m) peel of the vertices of degree < d
// returns nil without the elimination. A graph of minimum degree ≥ d is
// its own d-core and skips the peel; the minimum is read off the offsets
// before anything is allocated, so that such a graph gets the
// elimination's arrays in one allocation, and an empty core only the
// peel's two.
//
// When the d-core is d-regular (Theorem 1.3's Δ ≤ d case), a K_{d+1} in
// it is a whole component, so each of its vertices has a clique for a core
// neighbourhood: when no core vertex does, there is none, and nil is
// returned without the elimination. A core that is not regular, or a
// vertex that passes, takes the elimination, which finds the certificate.
func (g *Graph) FindCliqueDPlus1(d int) []int {
	if d < 1 || d > g.MaxDegree() {
		return nil
	}
	var s smallestLast
	whole := g.MinDegree() >= d
	if !whole && s.coreSize(g, d) == 0 {
		return nil
	}
	// coreSize leaves each core vertex's excess, its core degree − (d−1),
	// in s.deg, and a value ≤ 0 for every vertex it dropped.
	var excess []int32
	if !whole {
		excess = s.deg
	}
	if g.cliqueFreeRegularCore(d, excess) {
		return nil
	}
	s.init(g)
	// One buffer for every vertex's later neighborhood; a found clique is
	// returned as a copy.
	later := make([]int, 0, d+1)
	for v, deg := s.pop(); v >= 0; v, deg = s.pop() {
		// A later neighborhood bigger than d (degeneracy > d) is rare: it
		// gets a bounded exact search for a d-clique when small enough.
		if deg < d || deg > d+6 {
			continue
		}
		later = later[:0]
		for _, w := range g.Neighbors(v) {
			if s.deg[w] >= 0 {
				later = append(later, int(w))
			}
		}
		if deg == d {
			if g.IsClique(later) {
				return append([]int{v}, later...)
			}
		} else if sub := findCliqueOfSize(g, later, d); sub != nil {
			return append([]int{v}, sub...)
		}
	}
	return nil
}

// cliqueFreeRegularCore reports that the d-core is d-regular and holds no
// K_{d+1}. excess is coreSize's (a core vertex's is its core degree −
// (d−1), ≥ 1), or nil when the core is all of g, of minimum degree ≥ d.
// In a d-regular core the least vertex of a K_{d+1} has the rest of it for
// its core neighbourhood, all above it, so only a core vertex below all its
// core neighbours is tested: its neighbourhood's pairs, up to the first
// that is not an edge.
func (g *Graph) cliqueFreeRegularCore(d int, excess []int32) bool {
	if excess == nil {
		if g.MaxDegree() != d {
			return false
		}
	} else if slices.ContainsFunc(excess, func(e int32) bool { return e > 1 }) {
		return false
	}
	inCore := func(v int32) bool { return excess == nil || excess[v] > 0 }
	for v := range g.N() {
		if !inCore(int32(v)) {
			continue
		}
		nbrs := g.Neighbors(v) // ascending
		i := 0
		for i < len(nbrs) && !inCore(nbrs[i]) {
			i++
		}
		if i == len(nbrs) || int(nbrs[i]) < v {
			continue
		}
		clique := true
		for j := i; j < len(nbrs) && clique; j++ {
			if !inCore(nbrs[j]) {
				continue
			}
			for _, b := range nbrs[j+1:] {
				if inCore(b) && !g.HasEdge(int(nbrs[j]), int(b)) {
					clique = false
					break
				}
			}
		}
		if clique {
			return false
		}
	}
	return true
}

// findCliqueOfSize searches cand (assumed all adjacent to an implicit apex)
// for a clique of the given size with simple branch and bound.
func findCliqueOfSize(g *Graph, cand []int, size int) []int {
	var cur []int
	var rec func(start int) []int
	rec = func(start int) []int {
		if len(cur) == size {
			out := make([]int, size)
			copy(out, cur)
			return out
		}
		for i := start; i < len(cand); i++ {
			if len(cur)+len(cand)-i < size {
				return nil
			}
			v := cand[i]
			ok := true
			for _, u := range cur {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, v)
			if out := rec(i + 1); out != nil {
				return out
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	return rec(0)
}

// ContainsTriangle reports whether the graph has a triangle, returning one.
func (g *Graph) ContainsTriangle() (bool, [3]int) {
	for u := 0; u < g.N(); u++ {
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if w <= u {
				continue
			}
			// intersect adjacency lists
			a, b := g.Neighbors(u), g.Neighbors(w)
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					x := int(a[i])
					if x != u && x != w {
						return true, [3]int{u, w, x}
					}
					i++
					j++
				}
			}
		}
	}
	return false, [3]int{}
}
