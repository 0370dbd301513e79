// Package graph provides the undirected-graph substrate used throughout the
// reproduction: adjacency storage, traversals, balls, connectivity,
// biconnected components (blocks), Gallai-tree recognition, girth,
// degeneracy and clique utilities.
//
// Vertices are integers 0..N()-1. Graphs are immutable once built; use
// Builder to construct them. Adjacency is stored in CSR (compressed sparse
// row) form — one flat neighbor array indexed by a per-vertex offset array —
// so whole-graph sweeps are a single contiguous scan and per-vertex
// neighbor access is an O(1) slice view. All algorithms in this package are
// sequential; the LOCAL-model round accounting lives in internal/local.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an immutable simple undirected graph in CSR form. The zero value
// is the empty graph. Because a Graph never changes after construction,
// expensive whole-graph statistics (maximum degree, the degeneracy order)
// are computed once and cached; concurrent readers are safe.
type Graph struct {
	// offsets has N()+1 entries; vertex v's neighbors are
	// neighbors[offsets[v]:offsets[v+1]], sorted ascending.
	offsets   []int32
	neighbors []int32
	m         int
	maxDeg    int

	degenOnce sync.Once
	degen     DegeneracyResult

	mirrorOnce  sync.Once
	mirror      []int32
	mirrorBuilt atomic.Bool

	// backing pins the memory that offsets/neighbors alias when the graph
	// was loaded zero-copy from a .dcsr mapping (see OpenDCSR): as long as
	// any reference to the Graph lives, the mapping cannot be unmapped.
	backing any
}

// NewFromPairs builds a graph from an edge list by ReadEdgeList's counting
// sort, rejecting self-loops, duplicate edges and out-of-range endpoints.
func NewFromPairs(n int, pairs [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count")
	}
	s := newCSRSink(n, math.MaxInt64)
	for _, p := range pairs {
		if err := s.add(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return s.graph(1, func(f func(int)) { f(0) })
}

// csrSink builds a CSR by counting sort: log counts each edge in
// offsets[u] and offsets[v] and appends it to fixed-size chunks, so growth
// copies nothing; graph prefix-sums the counts into row ends, then walks
// the log backwards, placing each endpoint at its pre-decremented row end,
// so offsets end as the row starts.
type csrSink struct {
	n       int
	limit   int64 // most n + 2m allowed, see ReadEdgeListWithin
	offsets []int32
	chunks  [][]int32 // the edge log, u and v interleaved
	m       int
}

// logChunk is the length of one edge-log chunk: 64Ki pairs.
const logChunk = 128 << 10

func newCSRSink(n int, limit int64) *csrSink {
	return &csrSink{n: n, limit: limit, offsets: make([]int32, n+1)}
}

// add checks the edge {u, v} against the edges before it and logs it.
func (s *csrSink) add(u, v int) error {
	if err := checkEdge(s.n, u, v, int64(s.m)+1); err != nil {
		return err
	}
	if !s.room(1) {
		return &WeightError{Weight: int64(s.n) + 2*int64(s.m+1), Limit: s.limit}
	}
	s.log([]int32{int32(u), int32(v)})
	return nil
}

// room reports whether e more edges keep 2m within the int32 CSR offsets
// and n + 2m within the limit.
func (s *csrSink) room(e int) bool {
	m := int64(s.m) + int64(e)
	return 2*m <= math.MaxInt32 && int64(s.n)+2*m <= s.limit
}

// log counts and appends checked pairs.
func (s *csrSink) log(pairs []int32) {
	for _, v := range pairs {
		s.offsets[v]++
	}
	s.m += len(pairs) / 2
	for len(pairs) > 0 {
		c := len(s.chunks) - 1
		if c < 0 || len(s.chunks[c]) == cap(s.chunks[c]) {
			s.chunks, c = append(s.chunks, make([]int32, 0, logChunk)), c+1
		}
		k := min(len(pairs), cap(s.chunks[c])-len(s.chunks[c]))
		s.chunks[c] = append(s.chunks[c], pairs[:k]...)
		pairs = pairs[k:]
	}
}

// graph places and sorts the rows in w vertex ranges: run(f) must call
// f(i) for every range i in [0, w) and return when all have returned.
// Range i writes only its own vertices' offsets and rows. The first
// duplicate in vertex order fails the build.
func (s *csrSink) graph(w int, run func(f func(i int))) (*Graph, error) {
	off := s.offsets
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	nbrs := make([]int32, 2*s.m)
	bound := func(i int) (lo, hi int32) { return int32(i * s.n / w), int32((i + 1) * s.n / w) }
	run(func(i int) {
		lo, hi := bound(i)
		for c := len(s.chunks) - 1; c >= 0; c-- {
			for pairs, j := s.chunks[c], len(s.chunks[c])-2; j >= 0; j -= 2 {
				u, v := pairs[j], pairs[j+1]
				if uint32(u-lo) < uint32(hi-lo) {
					off[u]--
					nbrs[off[u]] = v
				}
				if uint32(v-lo) < uint32(hi-lo) {
					off[v]--
					nbrs[off[v]] = u
				}
			}
		}
	})
	maxDeg, errs := make([]int, w), make([]error, w)
	run(func(i int) {
		lo, hi := bound(i)
		maxDeg[i], errs[i] = sortRows(off[lo:hi+1], nbrs[off[lo]:], int(lo))
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return newCSR(off, nbrs, s.m, slices.Max(maxDeg)), nil
}

// checkEdge validates the m-th edge {u, v} of an n-vertex edge list:
// endpoints in range, no self-loop, 2m within the int32 CSR offsets.
func checkEdge(n, u, v int, m int64) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if 2*m > math.MaxInt32 {
		return fmt.Errorf("graph: %d adjacency entries exceed the int32 CSR limit", 2*m)
	}
	return nil
}

// sortRows sorts the CSR rows of vertices first, first+1, … of nbrs (which
// starts at offsets[0]), fails on a duplicate and returns the longest row.
// A row that arrives strictly increasing is left as it is.
func sortRows(offsets, nbrs []int32, first int) (maxDeg int, err error) {
	base := offsets[0]
	for i := 0; i+1 < len(offsets); i++ {
		row := nbrs[offsets[i]-base : offsets[i+1]-base]
		maxDeg = max(maxDeg, len(row))
		for j := 1; j < len(row); j++ {
			if row[j] > row[j-1] {
				continue
			}
			slices.Sort(row)
			for j := 1; j < len(row); j++ {
				if row[j] == row[j-1] {
					return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", first+i, row[j])
				}
			}
			break
		}
	}
	return maxDeg, nil
}

// MustNew is NewFromPairs, panicking on error. Intended for tests and
// generators with statically known-valid input.
func MustNew(n int, edges [][2]int) *Graph {
	g, err := NewFromPairs(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder accumulates edges for a Graph. The zero value is unusable; call
// NewBuilder.
type Builder struct {
	n    int
	adj  [][]int32
	m    int
	done bool
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, adj: make([][]int32, n)}
}

// AddEdge inserts the undirected edge {u, v}. It returns an error on
// self-loops, duplicate edges, out-of-range endpoints, or an edge past the
// int32 CSR limit.
func (b *Builder) AddEdge(u, v int) error {
	if b.done {
		return fmt.Errorf("graph: builder already finalized")
	}
	if err := checkEdge(b.n, u, v, int64(b.m)+1); err != nil {
		return err
	}
	if !b.AddEdgeOK(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	return nil
}

// AddEdgeOK inserts {u,v} if absent and valid, reporting whether it was added.
// Useful for randomized generators that tolerate collisions.
func (b *Builder) AddEdgeOK(u, v int) bool {
	if b.done || u == v || u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	if contains(b.adj[u], int32(v)) {
		return false
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	b.m++
	return true
}

// HasEdge reports whether {u,v} is already present.
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	return contains(b.adj[u], int32(v))
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// Graph finalizes the builder into CSR form. The builder must not be used
// afterwards.
func (b *Builder) Graph() *Graph {
	b.done = true
	if 2*b.m > math.MaxInt32 {
		// 2·M() must fit the int32 CSR offsets; fail loudly rather than
		// wrap into inverted slice bounds.
		panic(fmt.Sprintf("graph: %d adjacency entries exceed the int32 CSR limit", 2*b.m))
	}
	offsets := make([]int32, b.n+1)
	neighbors := make([]int32, 0, 2*b.m)
	for v, nbrs := range b.adj {
		neighbors = append(neighbors, nbrs...)
		offsets[v+1] = int32(len(neighbors))
		b.adj[v] = nil // release the per-vertex slice eagerly
	}
	maxDeg, _ := sortRows(offsets, neighbors, 0) // AddEdge kept rows duplicate-free
	return newCSR(offsets, neighbors, b.m, maxDeg)
}

func newCSR(offsets, neighbors []int32, m, maxDeg int) *Graph {
	return &Graph{offsets: offsets, neighbors: neighbors, m: m, maxDeg: maxDeg}
}

func contains(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns v's neighbor slice in increasing order — a view into the
// CSR array. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the raw compressed-sparse-row arrays: offsets (length N()+1)
// and the flat neighbor array (length 2·M()). Vertex v's neighbors are
// neighbors[offsets[v]:offsets[v+1]], sorted ascending. Callers must treat
// both slices as read-only; this is the zero-cost accessor for tight loops
// that sweep the whole adjacency structure.
func (g *Graph) CSR() (offsets, neighbors []int32) { return g.offsets, g.neighbors }

// Mirror returns the CSR mirror array: for every directed adjacency slot i
// (vertex v's p-th neighbor w sits at i = offsets[v]+p), mirror[i] is the
// index of v in w's own sorted neighbor list — the receiver-side port of
// the directed edge v→w. It is the O(1) routing table the message-passing
// engine uses to tag deliveries, replacing a per-message binary search.
// Computed once in O(n+m) and cached like MaxDegree; the caller must treat
// the slice as read-only.
func (g *Graph) Mirror() []int32 {
	g.mirrorOnce.Do(func() {
		mirror := make([]int32, len(g.neighbors))
		cursor := make([]int32, g.N())
		// Sweep v ascending. For a fixed w, the senders v with w ∈ N(v)
		// are visited in ascending order, which is exactly the order they
		// occupy in w's sorted neighbor list — so v's position in that
		// list is the number of neighbors of w seen so far.
		for v := 0; v < g.N(); v++ {
			for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
				w := g.neighbors[i]
				mirror[i] = cursor[w]
				cursor[w]++
			}
		}
		g.mirror = mirror
		g.mirrorBuilt.Store(true)
	})
	return g.mirror
}

// HasMirror reports whether the delivery mirror array has been materialized
// by a Mirror call. The serve graph store uses it to charge the mirror's
// memory only once it actually exists: a graph that never ran a
// message-plane job costs n+2m adjacency entries, not n+4m.
func (g *Graph) HasMirror() bool { return g.mirrorBuilt.Load() }

// HasEdge reports whether {u,v} ∈ E. Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	if g.Degree(v) < len(a) {
		a = g.Neighbors(v)
		v = u
	}
	t := int32(v)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= t })
	return i < len(a) && a[i] == t
}

// MaxDegree returns Δ(G), 0 for the empty graph. Cached at construction.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// MinDegree returns δ(G), 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) < d {
			d = g.Degree(v)
		}
	}
	return d
}

// AverageDegree returns 2|E|/|V|, 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.N())
}

// Edges returns all edges as (u,v) pairs with u < v, ordered by u then v.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	g.ForEachEdge(func(u, v int) {
		out = append(out, [2]int{u, v})
	})
	return out
}

// ForEachEdge calls fn once per edge with u < v, ordered by u then v,
// without materializing an edge list.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// DegreesInMask fills out (allocating when nil or too short) with
// |N(v) ∩ mask| for every masked vertex v, and 0 elsewhere. A nil mask
// means all vertices, making this a plain bulk degree sweep. This is the
// cache-friendly batch form of DegreeInMask for whole-graph passes.
func (g *Graph) DegreesInMask(mask []bool, out []int) []int {
	n := g.N()
	if cap(out) < n {
		out = make([]int, n)
	}
	out = out[:n]
	if mask == nil {
		for v := 0; v < n; v++ {
			out[v] = g.Degree(v)
		}
		return out
	}
	for v := 0; v < n; v++ {
		if !mask[v] {
			out[v] = 0
			continue
		}
		d := 0
		for _, w := range g.Neighbors(v) {
			if mask[w] {
				d++
			}
		}
		out[v] = d
	}
	return out
}

// Induced returns the subgraph induced by verts, plus the mapping from new
// vertex ids (0..len(verts)-1) back to the original ids. Vertices listed more
// than once are an error.
func (g *Graph) Induced(verts []int) (*Graph, []int, error) {
	sub, err := new(Traversal).Bind(g).InducedInto(new(InducedBuf), verts)
	if err != nil {
		return nil, nil, err
	}
	return sub, slices.Clone(verts), nil
}

// InducedBuf holds the CSR arrays and the graph header InducedInto builds
// a subgraph in. A caller carving many subgraphs one after another keeps
// one buffer, and each subgraph reuses the arrays and the header of the one
// before. The zero value is ready to use.
type InducedBuf struct {
	offsets, neighbors []int32
	g                  *Graph
}

// grow returns s resized to length n. It reuses s's array when that holds
// n, and otherwise allocates exactly n: growing by append doubling would
// allocate up to twice the final size. The contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// InducedInto is Induced on t's graph, building the subgraph in buf.
// Vertex i of the subgraph is verts[i], so the mapping back is verts
// itself. The returned graph is buf's one header, reset over buf's arrays
// (its cached degeneracy and mirror start empty): it is valid until buf's
// next use, which overwrites it in place. Under a fresh epoch, t's marks
// hold verts and its distance array each one's index, so the last search
// is invalidated.
func (t *Traversal) InducedInto(buf *InducedBuf, verts []int) (*Graph, error) {
	g := t.g
	epoch := t.nextEpoch()
	in, idx := t.mark, t.dist
	for i, v := range verts {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if in[v] == epoch {
			return nil, fmt.Errorf("graph: induced vertex %d listed twice", v)
		}
		in[v], idx[v] = epoch, int32(i)
	}
	// Build the CSR directly (two passes over the set's adjacency) instead
	// of going through Builder: no per-vertex adjacency slices.
	k := len(verts)
	offsets := grow(buf.offsets, k+1)
	offsets[0] = 0
	for i, v := range verts {
		d := int32(0)
		for _, w := range g.Neighbors(v) {
			if in[w] == epoch {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	neighbors := grow(buf.neighbors, int(offsets[k]))
	buf.offsets, buf.neighbors = offsets, neighbors
	for i, v := range verts {
		row := neighbors[offsets[i]:offsets[i]]
		for _, w := range g.Neighbors(v) {
			if in[w] == epoch {
				row = append(row, idx[w])
			}
		}
	}
	// g's rows are ascending in original ids, but the dense relabeling need
	// not be monotone; restore the sorted-adjacency invariant (HasEdge
	// binary-searches rows). g has no duplicate edge for it to find.
	maxDeg, _ := sortRows(offsets, neighbors, 0)
	if buf.g == nil {
		buf.g = new(Graph)
	}
	*buf.g = Graph{offsets: offsets, neighbors: neighbors, m: int(offsets[k]) / 2, maxDeg: maxDeg}
	return buf.g, nil
}

// InducedMask is Induced over the vertices v with mask[v] == true.
func (g *Graph) InducedMask(mask []bool) (*Graph, []int, error) {
	if len(mask) != g.N() {
		return nil, nil, fmt.Errorf("graph: mask length %d != n %d", len(mask), g.N())
	}
	verts := make([]int, 0, g.N())
	for v, ok := range mask {
		if ok {
			verts = append(verts, v)
		}
	}
	return g.Induced(verts)
}

// DegreeInMask returns |N(v) ∩ mask|.
func (g *Graph) DegreeInMask(v int, mask []bool) int {
	d := 0
	for _, w := range g.Neighbors(v) {
		if mask[w] {
			d++
		}
	}
	return d
}

// Clone returns a deep copy (rarely needed; Graph is immutable).
func (g *Graph) Clone() *Graph {
	offsets := append([]int32(nil), g.offsets...)
	neighbors := append([]int32(nil), g.neighbors...)
	return newCSR(offsets, neighbors, g.m, g.maxDeg)
}

// IsClique reports whether the vertex set verts is pairwise adjacent.
func (g *Graph) IsClique(verts []int) bool {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if !g.HasEdge(verts[i], verts[j]) {
				return false
			}
		}
	}
	return true
}

// String returns a short description, e.g. "graph(n=5, m=6)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}
