package graph

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

// peelRec is one vertex's state in a smallest-last elimination: its degree
// among the vertices not yet removed (-1 once removed) and its links in the
// list of its degree's bucket.
type peelRec struct{ deg, next, prev int32 }

// smallestLast is the elimination behind Degeneracy and FindCliqueDPlus1.
// Bucket d is a doubly linked list of the remaining vertices of degree d,
// newest first: the initial fill pushes in vertex order and a decrement
// moves the vertex to the front of its new bucket, so pop takes the vertex
// that entered the lowest nonempty bucket last (LIFO). min is lowered on
// every decrement and rises only past empty buckets, and a removal lowers
// it by at most one, so a whole elimination costs O(n + m + Δ).
type smallestLast struct {
	g    *Graph
	rec  []peelRec
	head []int32 // head[d] is bucket d's newest vertex, -1 when empty
	min  int
}

// init fills the buckets with every vertex of g.
func (s *smallestLast) init(g *Graph) {
	s.g = g
	s.rec = make([]peelRec, g.N())
	s.head = make([]int32, g.MaxDegree()+1)
	for d := range s.head {
		s.head[d] = -1
	}
	for v := range s.rec {
		s.rec[v].deg = int32(g.Degree(v))
		s.push(int32(v))
	}
}

// push puts v at the front of the bucket of its degree.
func (s *smallestLast) push(v int32) {
	r := &s.rec[v]
	r.prev, r.next = -1, s.head[r.deg]
	if r.next >= 0 {
		s.rec[r.next].prev = v
	}
	s.head[r.deg] = v
}

// unlink takes v out of the bucket of its degree.
func (s *smallestLast) unlink(v int32) {
	r := s.rec[v]
	if r.prev >= 0 {
		s.rec[r.prev].next = r.next
	} else {
		s.head[r.deg] = r.next
	}
	if r.next >= 0 {
		s.rec[r.next].prev = r.prev
	}
}

// pop removes the next vertex of the order and returns it with its degree
// at removal, or -1 once every vertex is gone. Afterwards v's later
// neighbors are exactly its neighbors w with rec[w].deg ≥ 0.
func (s *smallestLast) pop() (v, deg int) {
	for s.min < len(s.head) && s.head[s.min] < 0 {
		s.min++
	}
	if s.min == len(s.head) {
		return -1, 0
	}
	v32, deg := s.head[s.min], s.min
	s.unlink(v32)
	s.rec[v32].deg = -1
	for _, w := range s.g.Neighbors(int(v32)) {
		if s.rec[w].deg < 0 {
			continue // removed, or outside the mask
		}
		s.unlink(w)
		s.rec[w].deg--
		s.push(w)
		s.min = min(s.min, int(s.rec[w].deg))
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
func (g *Graph) FindCliqueDPlus1(d int) []int {
	if d < 1 {
		return nil
	}
	var s smallestLast
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
			if s.rec[w].deg >= 0 {
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
