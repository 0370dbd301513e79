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

	scratch sync.Pool // *Traversal, reused by Ball/Components/etc.
}

// New builds a graph with n vertices and the given edges. It panics on
// out-of-range endpoints; duplicate edges and self-loops are rejected with an
// error. Most callers should prefer Builder.
func New(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// NewFromPairs builds a graph directly in CSR form from an edge list,
// skipping the Builder's per-vertex append slices: two counting passes over
// pairs, then one sort per vertex. Self-loops, duplicate edges and
// out-of-range endpoints are rejected. This is the O(n+m·log d) bulk path
// for generators that already hold a full edge list.
func NewFromPairs(n int, pairs [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count")
	}
	if 2*len(pairs) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d adjacency entries exceed the int32 CSR limit", 2*len(pairs))
	}
	deg := make([]int32, n+1)
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		deg[u+1]++
		deg[v+1]++
	}
	offsets := deg // prefix sums turn counts into offsets in place
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	neighbors := make([]int32, 2*len(pairs))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, p := range pairs {
		u, v := int32(p[0]), int32(p[1])
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		adj := neighbors[offsets[v]:offsets[v+1]]
		if len(adj) > maxDeg {
			maxDeg = len(adj)
		}
		slices.Sort(adj)
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, adj[i])
			}
		}
	}
	return newCSR(offsets, neighbors, len(pairs), maxDeg), nil
}

// MustNew is New, panicking on error. Intended for tests and generators with
// statically known-valid input.
func MustNew(n int, edges [][2]int) *Graph {
	g, err := New(n, edges)
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
// self-loops, duplicate edges, or out-of-range endpoints.
func (b *Builder) AddEdge(u, v int) error {
	if b.done {
		return fmt.Errorf("graph: builder already finalized")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if contains(b.adj[u], int32(v)) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
	b.m++
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
	offsets := make([]int32, b.n+1)
	total := 0
	maxDeg := 0
	for v, nbrs := range b.adj {
		offsets[v] = int32(total)
		total += len(nbrs)
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	if total > math.MaxInt32 {
		// 2·M() must fit the int32 CSR offsets; fail loudly rather than
		// wrap into inverted slice bounds.
		panic(fmt.Sprintf("graph: %d adjacency entries exceed the int32 CSR limit", total))
	}
	offsets[b.n] = int32(total)
	neighbors := make([]int32, total)
	for v, nbrs := range b.adj {
		slices.Sort(nbrs)
		copy(neighbors[offsets[v]:offsets[v+1]], nbrs)
		b.adj[v] = nil // release the per-vertex slice eagerly
	}
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

// indexMap is a pooled vertex→dense-index map backed by epoch-stamped flat
// arrays, replacing the per-call Go map in Induced: clearing is O(1) and
// lookups are an array probe. Same stamping discipline as Traversal/Bitset.
type indexMap struct {
	idx   []int32
	stamp []uint32
	epoch uint32
}

var indexMapPool sync.Pool

func acquireIndexMap(n int) *indexMap {
	m, _ := indexMapPool.Get().(*indexMap)
	if m == nil {
		m = &indexMap{}
	}
	if m.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² uses
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
	if n > len(m.idx) {
		m.idx = append(m.idx, make([]int32, n-len(m.idx))...)
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	return m
}

func (m *indexMap) set(v, i int) { m.idx[v] = int32(i); m.stamp[v] = m.epoch }

func (m *indexMap) get(v int) (int, bool) {
	if m.stamp[v] != m.epoch {
		return 0, false
	}
	return int(m.idx[v]), true
}

// Induced returns the subgraph induced by verts, plus the mapping from new
// vertex ids (0..len(verts)-1) back to the original ids. Vertices listed more
// than once are an error.
func (g *Graph) Induced(verts []int) (*Graph, []int, error) {
	im := acquireIndexMap(g.N())
	defer indexMapPool.Put(im)
	orig := make([]int, len(verts))
	for i, v := range verts {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if _, dup := im.get(v); dup {
			return nil, nil, fmt.Errorf("graph: induced vertex %d listed twice", v)
		}
		im.set(v, i)
		orig[i] = v
	}
	// Build the CSR directly (two passes over the set's adjacency) instead
	// of going through Builder: no per-vertex adjacency slices, so carving
	// thousands of small balls costs two allocations each, not O(|ball|).
	k := len(verts)
	offsets := make([]int32, k+1)
	for i, v := range verts {
		d := int32(0)
		for _, w := range g.Neighbors(v) {
			if _, ok := im.get(int(w)); ok {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	neighbors := make([]int32, offsets[k])
	maxDeg, m := 0, 0
	for i, v := range verts {
		row := neighbors[offsets[i]:offsets[i]]
		for _, w := range g.Neighbors(v) {
			if j, ok := im.get(int(w)); ok {
				row = append(row, int32(j))
			}
		}
		if len(row) > maxDeg {
			maxDeg = len(row)
		}
		m += len(row)
		// g's rows are ascending in original ids, but the dense relabeling
		// need not be monotone; restore the sorted-adjacency invariant
		// (HasEdge binary-searches rows).
		slices.Sort(row)
	}
	return newCSR(offsets, neighbors, m/2, maxDeg), orig, nil
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
