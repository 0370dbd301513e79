// Package seqcolor provides the sequential (list-)coloring substrate:
// greedy colorings, the constructive version of Theorem 1.1 (Borodin;
// Erdős–Rubin–Taylor — every connected non-Gallai-tree graph is
// degree-choosable), the constructive Brooks step it relies on, the folklore
// Theorem 1.2, and coloring verification. These run inside a single node's
// free local computation in the LOCAL model (root-ball extension of
// Lemma 3.2) and serve as sequential baselines in the experiments.
package seqcolor

import (
	"errors"
	"fmt"
	"slices"

	"distcolor/internal/graph"
)

// Uncolored marks a vertex without a color.
const Uncolored = -1

// ErrGallaiTight is returned when a component is a Gallai tree whose lists
// are tight — the case excluded by Theorem 1.1. When all lists are
// identical this is a certificate of infeasibility; with differing lists a
// best-effort heuristic is attempted first, so the error means "possibly
// infeasible" (never returned in the theorem's guaranteed cases).
var ErrGallaiTight = errors.New("seqcolor: component is a Gallai tree with tight lists")

// GallaiTightError wraps ErrGallaiTight with the offending component and
// whether the identical-list infeasibility certificate applies.
type GallaiTightError struct {
	// Component lists the vertices of the Gallai-tight component.
	Component []int
	// Certified is true when all effective lists were identical, which
	// certifies that no coloring exists (regular Gallai trees: odd cycles
	// and cliques with a common tight palette).
	Certified bool
}

func (e *GallaiTightError) Error() string {
	kind := "heuristic descent failed; possibly infeasible"
	if e.Certified {
		kind = "identical lists: certifiably infeasible"
	}
	return fmt.Sprintf("%v (%s; component of %d vertices)", ErrGallaiTight, kind, len(e.Component))
}

// Unwrap makes errors.Is(err, ErrGallaiTight) work.
func (e *GallaiTightError) Unwrap() error { return ErrGallaiTight }

// ErrListTooSmall is returned when some vertex's effective list is smaller
// than its uncolored degree — the caller violated the |L(v)| ≥ deg(v)
// hypothesis of Theorem 1.1.
var ErrListTooSmall = errors.New("seqcolor: effective list smaller than uncolored degree")

// Verify checks that colors is a proper coloring of g: every vertex colored,
// no monochromatic edge and, if lists is non-nil, every color drawn from the
// vertex's list.
func Verify(g *graph.Graph, colors []int, lists [][]int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("seqcolor: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] == Uncolored {
			return fmt.Errorf("seqcolor: vertex %d uncolored", v)
		}
		if lists != nil && !containsColor(lists[v], colors[v]) {
			return fmt.Errorf("seqcolor: vertex %d color %d not in its list %v", v, colors[v], lists[v])
		}
		for _, w := range g.Neighbors(v) {
			if colors[int(w)] == colors[v] {
				return fmt.Errorf("seqcolor: edge (%d,%d) monochromatic in color %d", v, w, colors[v])
			}
		}
	}
	return nil
}

// VerifyPartial is Verify but tolerates uncolored vertices (it checks only
// colored-colored conflicts and list membership of colored vertices).
func VerifyPartial(g *graph.Graph, colors []int, lists [][]int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("seqcolor: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] == Uncolored {
			continue
		}
		if lists != nil && !containsColor(lists[v], colors[v]) {
			return fmt.Errorf("seqcolor: vertex %d color %d not in its list", v, colors[v])
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && colors[int(w)] == colors[v] {
				return fmt.Errorf("seqcolor: edge (%d,%d) monochromatic", v, w)
			}
		}
	}
	return nil
}

func containsColor(list []int, c int) bool {
	for _, x := range list {
		if x == c {
			return true
		}
	}
	return false
}

// NumColors returns the number of distinct colors used. Colors below
// 2·len(colors)+64 are counted on a seen-slice as wide as the largest of
// them, any others (huge or negative) on a map.
func NumColors(colors []int) int {
	width := 0
	for _, c := range colors {
		if c >= width && c < 2*len(colors)+64 {
			width = c + 1
		}
	}
	seen, far, count := make([]bool, width), map[int]bool{}, 0
	for _, c := range colors {
		if c >= 0 && c < width {
			if !seen[c] {
				seen[c] = true
				count++
			}
		} else if c != Uncolored {
			far[c] = true
		}
	}
	return count + len(far)
}

// UniformLists returns n identical lists {0, 1, ..., k-1}.
func UniformLists(n, k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	lists := make([][]int, n)
	for v := range lists {
		lists[v] = base // shared backing is fine: lists are read-only
	}
	return lists
}

// colorScanCap bounds the bitset width the palette scan will use; lists
// with colors beyond it (or negative) take the per-color fallback so exotic
// caller-supplied palettes cannot force a huge allocation.
const colorScanCap = 1 << 20

// listWidth returns max(list)+1 when every color fits the bitset, or -1 to
// request the per-color fallback.
func listWidth(list []int) int {
	maxc := -1
	for _, c := range list {
		if c < 0 || c >= colorScanCap {
			return -1
		}
		if c > maxc {
			maxc = c
		}
	}
	return maxc + 1
}

// scanFree is the one palette scan: it calls keep on each color of list, in
// list order, that no colored neighbor of v uses, until keep returns false,
// and returns v's uncolored degree. b is scratch (any width; reset here).
// Neighbor colors are marked in b in one pass and the list is then scanned
// in its own order, so the result is identical to the naive per-color
// neighbor scan, which lists listWidth rejects use instead. The list-order
// tie-break is load-bearing: every first-fit choice in the repo goes
// through here.
func scanFree(g *graph.Graph, colors []int, list []int, v int, b *graph.Bitset, keep func(c int) bool) (uncDeg int) {
	width := listWidth(list)
	if width >= 0 {
		b.Reset(width)
	}
	nbrs := g.Neighbors(v)
	for _, w := range nbrs {
		// Colors outside [0, width) cannot occur in a bitset-scanned list,
		// so dropping them is exact.
		if c := colors[int(w)]; c == Uncolored {
			uncDeg++
		} else if c >= 0 && c < width {
			b.Set(c)
		}
	}
	for _, c := range list {
		used := false
		if width >= 0 {
			used = b.Test(c)
		} else {
			for _, w := range nbrs {
				if colors[int(w)] == c {
					used = true
					break
				}
			}
		}
		if !used && !keep(c) {
			break
		}
	}
	return uncDeg
}

// GreedyInOrder colors the given vertices greedily in order from their
// lists (first free color in list order), skipping already-colored
// vertices; it fails if some vertex has no free color. Callers running
// many greedy passes should keep a Workspace and call its GreedyInOrder.
func GreedyInOrder(g *graph.Graph, colors []int, lists [][]int, order []int) error {
	var b graph.Bitset
	return greedyInOrder(g, colors, lists, order, &b)
}

// GreedyInOrder is the package-level GreedyInOrder on w's palette scratch.
func (w *Workspace) GreedyInOrder(g *graph.Graph, colors []int, lists [][]int, order []int) error {
	return greedyInOrder(g, colors, lists, order, &w.b)
}

// greedyInOrder is GreedyInOrder with the palette scratch b supplied.
func greedyInOrder(g *graph.Graph, colors []int, lists [][]int, order []int, b *graph.Bitset) error {
	for _, v := range order {
		if colors[v] != Uncolored {
			continue
		}
		free := Uncolored
		scanFree(g, colors, lists[v], v, b, func(c int) bool {
			free = c
			return false
		})
		if free == Uncolored {
			return fmt.Errorf("seqcolor: greedy stuck at vertex %d", v)
		}
		colors[v] = free
	}
	return nil
}

// Workspace is the reusable scratch of DegreeListColor, EffectiveLists,
// GreedyInOrder and ColorBall: the masks, the component walk, reverse-BFS
// orders, effective lists, the palette bitset, the traversal, the ball
// indices and neighbors, and the bad block's graph, lists and colors. Each
// array grows to the largest graph the workspace has served, to exactly
// the size needed, and is reused by later calls, so a stream of small
// graphs or balls (the root balls of Lemma 3.2) costs no allocation per
// graph once warm. The zero value is ready to use. A Workspace is owned by
// one goroutine at a time.
type Workspace struct {
	b         graph.Bitset    // palette scratch of every list scan
	tr        graph.Traversal // every search, block DFS and block graph
	at        []int32         // ColorBall's 1-based ball indices; all 0 between calls
	nbrs      []int           // ColorBall's ball neighbors of one vertex
	unc       []bool          // uncolored vertices; the component walk consumes it
	comp      []bool          // the current component; all false between components
	mask      []bool          // the tight-block steps' masks
	compVerts []int           // the last walk's components, back to back
	compEnds  []int           // component i is compVerts[compEnds[i-1]:compEnds[i]]
	order     []int           // the last reverse-BFS order
	lists     listBuf         // EffectiveLists' result
	block     blockScratch    // the bad block's graph, lists and colors
}

// listBuf holds effective lists on one flat backing array.
type listBuf struct {
	flat []int
	eff  [][]int
}

// blockScratch holds what colorBadBlock builds for a bad block.
type blockScratch struct {
	ind    graph.InducedBuf
	verts  []int
	lists  listBuf
	colors []int
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

// reverseBFSOrder returns the vertices of the masked component of src in
// order of decreasing BFS distance from src (src last), in w.order.
// Processing in this order guarantees every vertex except src has an
// uncolored neighbor (its BFS parent) at coloring time.
func (w *Workspace) reverseBFSOrder(g *graph.Graph, src int, mask []bool) []int {
	tr := w.tr.Bind(g)
	tr.Run([]int{src}, mask, -1)
	fwd := tr.Order() // nondecreasing distance; emit it reversed
	order := grow(w.order, len(fwd))
	for i, v := range fwd {
		order[len(fwd)-1-i] = int(v)
	}
	w.order = order
	return order
}

// DegreeListColor colors every vertex of g from its list, assuming
// |lists[v]| ≥ deg(v) for all v. It succeeds on every component that has a
// surplus vertex (|list| > degree) or is not a Gallai tree — the
// constructive content of Theorem 1.1. Components violating both return
// ErrGallaiTight (wrapped with component info); per Theorem 1.1 such
// components may genuinely admit no list coloring.
//
// Already-colored entries in colors (≠ Uncolored) are treated as fixed
// precoloring: their colors block neighbors, and effective lists/degrees are
// computed against uncolored vertices only. (The root-ball extension of
// Lemma 3.2 calls this with a fully uncolored ball and pre-filtered lists.)
//
// DegreeListColor runs on a fresh Workspace; callers coloring many graphs
// should keep one and call its DegreeListColor.
func DegreeListColor(g *graph.Graph, colors []int, lists [][]int) error {
	var w Workspace
	return w.DegreeListColor(g, colors, lists)
}

// DegreeListColor is the package-level DegreeListColor on w's scratch. It
// leaves w's effective lists alone, so lists may be the result of w's
// EffectiveLists.
func (w *Workspace) DegreeListColor(g *graph.Graph, colors []int, lists [][]int) error {
	n := g.N()
	if len(colors) != n || len(lists) != n {
		return fmt.Errorf("seqcolor: size mismatch")
	}
	unc := grow(w.unc, n)
	w.unc = unc
	count := 0
	for v := range n {
		unc[v] = colors[v] == Uncolored
		if unc[v] {
			count++
		}
	}
	return w.colorComponents(g, colors, lists, count)
}

// colorComponents colors each component of the subgraph of g on w.unc,
// which holds count vertices, consuming w.unc. One component mask serves
// all components, cleared between uses, so a graph with many small
// components (forests, peeled balls) does not pay O(n) per component.
func (w *Workspace) colorComponents(g *graph.Graph, colors []int, lists [][]int, count int) error {
	w.walkComponents(g, count)
	compMask := grow(w.comp, g.N()) // all false: every use clears it by list
	w.comp = compMask
	start := 0
	for _, end := range w.compEnds {
		comp := w.compVerts[start:end]
		start = end
		for _, v := range comp {
			compMask[v] = true
		}
		err := w.colorComponent(g, colors, lists, comp, compMask)
		for _, v := range comp {
			compMask[v] = false
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walkComponents lists the components of the subgraph of g on w.unc
// (count vertices) into compVerts and compEnds, in the order and BFS vertex
// order of g.Components, clearing w.unc as it reaches vertices.
func (w *Workspace) walkComponents(g *graph.Graph, count int) {
	unc := w.unc
	verts := grow(w.compVerts, count)[:0]
	ends := w.compEnds[:0]
	tr := w.tr.Bind(g)
	for v := range g.N() {
		if !unc[v] {
			continue
		}
		tr.Run([]int{v}, unc, -1)
		for _, u := range tr.Order() {
			verts = append(verts, int(u))
			unc[u] = false
		}
		ends = append(ends, len(verts))
	}
	w.compVerts, w.compEnds = verts, ends
}

// appendEffectiveList appends to dst the colors of list, in list order,
// that no colored neighbor of v uses. b is scratch.
func appendEffectiveList(dst []int, g *graph.Graph, colors []int, list []int, v int, b *graph.Bitset) []int {
	scanFree(g, colors, list, v, b, func(c int) bool {
		dst = append(dst, c)
		return true
	})
	return dst
}

// EffectiveLists returns the effective list of each of verts — the colors
// of its list, in list order, that no colored neighbor uses — on one flat
// backing array of w's: each list is a capped sub-slice, so an append to
// one can never spill into the next. The lists are valid until w's next
// EffectiveLists call.
func (w *Workspace) EffectiveLists(g *graph.Graph, colors []int, lists [][]int, verts []int) [][]int {
	return w.lists.cut(g, colors, lists, verts, &w.b)
}

// cut fills l with the effective lists of verts and returns them.
func (l *listBuf) cut(g *graph.Graph, colors []int, lists [][]int, verts []int, b *graph.Bitset) [][]int {
	total := 0
	for _, v := range verts {
		total += len(lists[v])
	}
	flat := grow(l.flat, total)[:0]
	eff := grow(l.eff, len(verts))
	for i, v := range verts {
		start := len(flat)
		flat = appendEffectiveList(flat, g, colors, lists[v], v, b)
		eff[i] = flat[start:len(flat):len(flat)]
	}
	l.flat, l.eff = flat, eff
	return eff
}

// colorComponent colors one uncolored component. compMask must be true
// exactly on comp's vertices; the caller owns (and clears) it.
func (w *Workspace) colorComponent(g *graph.Graph, colors []int, lists [][]int, comp []int, compMask []bool) error {
	// Pass 1: validate the hypothesis, and find a surplus vertex if any.
	b := &w.b
	surplus := -1
	for _, v := range comp {
		es := 0
		ud := scanFree(g, colors, lists[v], v, b, func(int) bool {
			es++
			return true
		})
		if es < ud {
			return fmt.Errorf("%w (vertex %d: list %d < uncolored degree %d)", ErrListTooSmall, v, es, ud)
		}
		if es > ud && surplus == -1 {
			surplus = v
		}
	}
	if surplus != -1 {
		order := w.reverseBFSOrder(g, surplus, compMask)
		if err := greedyInOrder(g, colors, lists, order, b); err != nil {
			return fmt.Errorf("surplus path: %w", err)
		}
		return nil
	}
	// Tight everywhere. Find a bad block of the component.
	dec := w.tr.Bind(g).Blocks(compMask)
	bad := graph.FirstBadBlock(dec)
	if bad == -1 {
		return w.gallaiTightFallback(g, colors, lists, comp, compMask)
	}
	// Peel every other block toward the bad block: reverse BFS-of-blocks
	// order; inside each block color everything except the cut vertex
	// leading toward the root, farthest-from-that-cut-vertex first.
	bt := graph.NewBlockTree(dec)
	order, toward := bt.PeelOrder(bad)
	for i := len(order) - 1; i >= 1; i-- {
		cut := toward[i]
		if colors[cut] != Uncolored {
			return fmt.Errorf("seqcolor: internal: cut vertex %d colored early", cut)
		}
		vs := reverseBFSOrderInBlock(&dec.Blocks[order[i]], cut)
		if err := greedyInOrder(g, colors, lists, vs[:len(vs)-1], b); err != nil {
			return fmt.Errorf("seqcolor: internal: block peel: %w", err)
		}
	}
	// Root (bad) block: all of it is uncolored now; solve it.
	return w.colorBadBlock(g, colors, lists, &dec.Blocks[bad])
}

// gallaiTightFallback handles a tight Gallai-tree component. With identical
// lists everywhere this is certifiably infeasible (only regular Gallai trees
// can be list-identical and tight: odd cycles and cliques, both
// uncolorable). With differing lists it applies the surplus-creation trick
// greedily — color u with a color outside a neighbor's list and recurse on
// the remaining components — which colors many feasible instances (all the
// cases arising in this repo's tests) but is not a completeness proof;
// failures surface as ErrGallaiTight ("possibly infeasible"). Theorem 1.3's
// extension never reaches this path: happy roots guarantee a surplus vertex
// or a non-Gallai ball.
//
// The recursion runs on a workspace of its own: w's component walk is still
// in use by the caller's loop.
func (w *Workspace) gallaiTightFallback(g *graph.Graph, colors []int, lists [][]int, comp []int, compMask []bool) error {
	b := &w.b
	for _, u := range comp {
		eu := appendEffectiveList(nil, g, colors, lists[u], u, b)
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if !compMask[w] || colors[w] != Uncolored {
				continue
			}
			ew := appendEffectiveList(nil, g, colors, lists[w], w, b)
			a, ok := colorInFirstNotSecond(eu, ew)
			if !ok {
				continue
			}
			colors[u] = a
			// Recurse on each remaining uncolored sub-component.
			var sub Workspace
			sub.unc = make([]bool, g.N())
			count := 0
			for _, v := range comp {
				if colors[v] == Uncolored {
					sub.unc[v] = true
					count++
				}
			}
			if err := sub.colorComponents(g, colors, lists, count); err != nil {
				return &GallaiTightError{Component: append([]int(nil), comp...)}
			}
			return nil
		}
	}
	return &GallaiTightError{Component: append([]int(nil), comp...), Certified: true}
}

// reverseBFSOrderInBlock orders the block's vertices by decreasing distance
// from src, using only the block's own edges; src comes last.
func reverseBFSOrderInBlock(blk *graph.Block, src int) []int {
	adj := map[int][]int{}
	for _, e := range blk.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := map[int]int{src: 0}
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range adj[u] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	order := append([]int(nil), queue...)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// colorBadBlock colors a 2-connected block that is neither a clique nor an
// odd cycle, all of whose vertices are uncolored with effective lists of
// size ≥ block-degree (tight in the hard case).
func (w *Workspace) colorBadBlock(g *graph.Graph, colors []int, lists [][]int, blk *graph.Block) error {
	s := &w.block
	d, verts, err := w.blockGraph(g, blk)
	if err != nil {
		return err
	}
	// A block that is all of g leaves no vertex of g colored, so its
	// effective lists are the lists themselves (colorTwoConnectedTight
	// only reads them).
	eff := lists
	if verts != nil {
		eff = s.lists.cut(g, colors, lists, verts, &w.b)
	}
	sub := grow(s.colors, d.N())
	s.colors = sub
	for i := range sub {
		sub[i] = Uncolored
	}
	if err := w.colorTwoConnectedTight(d, sub, eff); err != nil {
		return err
	}
	for i, c := range sub {
		v := i
		if verts != nil {
			v = verts[i]
		}
		if c == Uncolored {
			return fmt.Errorf("seqcolor: internal: block vertex %d left uncolored", v)
		}
		colors[v] = c
	}
	return nil
}

// blockGraph returns the block as its own graph on vertices 0..k-1, with
// verts[i] the g-vertex of block vertex i in increasing order. A block holds
// every edge of g between its vertices, so this is the subgraph induced by
// the sorted vertex set, built in w.block. When the block spans all of g it
// is g itself, and verts is nil (the identity).
func (w *Workspace) blockGraph(g *graph.Graph, blk *graph.Block) (d *graph.Graph, verts []int, err error) {
	d = g
	if len(blk.Vertices) != g.N() {
		s := &w.block
		verts = grow(s.verts, len(blk.Vertices))
		s.verts = verts
		copy(verts, blk.Vertices)
		slices.Sort(verts)
		if d, err = w.tr.Bind(g).InducedInto(&s.ind, verts); err != nil {
			return nil, nil, fmt.Errorf("seqcolor: block graph: %w", err)
		}
	}
	if d.M() != len(blk.Edges) {
		return nil, nil, fmt.Errorf("seqcolor: internal: block has %d edges but its vertices induce %d", len(blk.Edges), d.M())
	}
	return d, verts, nil
}

// colorTwoConnectedTight colors a connected graph d with lists eff where
// |eff[v]| ≥ deg(v); it requires d to be 2-connected and not a clique nor an
// odd cycle when all lists are tight and identical (the Brooks case).
func (w *Workspace) colorTwoConnectedTight(d *graph.Graph, sub []int, eff [][]int) error {
	n := d.N()
	// (a) surplus inside the block (can appear after peeling).
	for v := 0; v < n; v++ {
		if len(eff[v]) > d.Degree(v) {
			order := w.reverseBFSOrder(d, v, nil)
			return greedyInOrder(d, sub, eff, order, &w.b)
		}
	}
	// (b) an edge with different lists: color u with a ∈ L(u)\L(x); x gains
	// surplus; finish by reverse BFS from x in d−u (connected: d 2-connected).
	// When every list equals the first, no edge has one.
	same := sameLists(eff)
	for u := 0; u < n && !same; u++ {
		for _, x32 := range d.Neighbors(u) {
			x := int(x32)
			if a, ok := colorInFirstNotSecond(eff[u], eff[x]); ok {
				sub[u] = a
				mask := w.maskAllBut(n, u, u)
				order := w.reverseBFSOrder(d, x, mask)
				return greedyInOrder(d, sub, eff, order, &w.b)
			}
		}
	}
	// (c) identical tight lists everywhere ⇒ d is k-regular with a common
	// k-palette: the constructive Brooks case.
	k := d.Degree(0)
	for v := 0; v < n; v++ {
		if d.Degree(v) != k || len(eff[v]) != k {
			return fmt.Errorf("seqcolor: internal: expected %d-regular tight block", k)
		}
	}
	if k == 2 {
		// even cycle (odd cycles are good blocks, never routed here)
		return colorEvenCycle(d, sub, eff)
	}
	x, y, z, order, err := w.brooksTriple(d, w.maskAllBut(n, -1, -1))
	if err != nil {
		return err
	}
	if order == nil {
		order = w.reverseBFSOrder(d, z, w.maskAllBut(n, x, y))
	}
	a := eff[x][0]
	sub[x] = a
	sub[y] = a
	return greedyInOrder(d, sub, eff, order, &w.b)
}

// sameLists reports whether every list equals the first.
func sameLists(eff [][]int) bool {
	return !slices.ContainsFunc(eff, func(l []int) bool { return !slices.Equal(l, eff[0]) })
}

// maskAllBut returns w.mask sized n, true everywhere except at x and y.
func (w *Workspace) maskAllBut(n, x, y int) []bool {
	mask := grow(w.mask, n)
	w.mask = mask
	for i := range mask {
		mask[i] = i != x && i != y
	}
	return mask
}

func colorInFirstNotSecond(a, b []int) (int, bool) {
	for _, c := range a {
		if !containsColor(b, c) {
			return c, true
		}
	}
	return 0, false
}

// colorEvenCycle 2-colors an even cycle whose vertices share a common
// 2-palette (the degenerate k=2 Brooks case).
func colorEvenCycle(d *graph.Graph, sub []int, eff [][]int) error {
	ok, side := d.IsBipartite(nil)
	if !ok {
		return fmt.Errorf("seqcolor: internal: odd cycle routed to even-cycle case")
	}
	for v := 0; v < d.N(); v++ {
		if len(eff[v]) < 2 {
			return fmt.Errorf("seqcolor: internal: short list on cycle")
		}
		// The two-color palettes are identical as sets but may be ordered
		// differently per vertex; canonicalize by value.
		lo, hi := eff[v][0], eff[v][1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if side[v] == 0 {
			sub[v] = lo
		} else {
			sub[v] = hi
		}
	}
	return nil
}

// brooksTries bounds the candidate triples of the Brooks fast path, in
// brooksTriple and ColorBall alike, before the exhaustive search.
const brooksTries = 32

// brooksTriple finds x, y, z with x,y ∈ N(z), x,y non-adjacent and
// d−{x,y} connected, in a 2-connected non-complete graph d. (Lovász's
// lemma, algorithmic form.) A candidate is tried by one BFS from z over
// d−{x,y}, which reaches all its n−2 vertices exactly when that graph is
// connected; the triple comes with that BFS's order reversed (in w.order),
// the order the greedy colors in. The block-structure case returns a nil
// order. mask is scratch, all true on entry: one mask serves every
// candidate, with the probed vertices cleared for the BFS and restored
// after it.
func (w *Workspace) brooksTriple(d *graph.Graph, mask []bool) (x, y, z int, order []int, err error) {
	n := d.N()
	try := func(a, b, zc int) []int {
		mask[a], mask[b] = false, false
		order := w.reverseBFSOrder(d, zc, mask)
		mask[a], mask[b] = true, true
		if len(order) == n-2 {
			return order
		}
		return nil
	}
	// Fast path: in well-connected graphs (the typical case) almost any
	// distance-2 pair works; try a bounded number of candidates before the
	// exhaustive block-structure search.
	tried := 0
	for zc := 0; zc < n && tried < brooksTries; zc++ {
		nbrs := d.Neighbors(zc)
		for i := 0; i < len(nbrs) && tried < brooksTries; i++ {
			for j := i + 1; j < len(nbrs) && tried < brooksTries; j++ {
				a, b := int(nbrs[i]), int(nbrs[j])
				if d.HasEdge(a, b) {
					continue
				}
				tried++
				if order := try(a, b, zc); order != nil {
					return a, b, zc, order, nil
				}
			}
		}
	}
	// Case 1: some z leaves a cut vertex in d−z ⇒ pick interior neighbors
	// of z in two different leaf blocks of d−z.
	for zc := 0; zc < n; zc++ {
		mask[zc] = false
		dec := w.tr.Bind(d).Blocks(mask)
		mask[zc] = true
		hasCut := false
		for v := 0; v < n; v++ {
			if dec.IsCut[v] {
				hasCut = true
				break
			}
		}
		if !hasCut {
			continue
		}
		bt := graph.NewBlockTree(dec)
		leaves := leafBlocks(bt)
		var picks []int
		for _, li := range leaves {
			blk := &dec.Blocks[li]
			found := -1
			for _, v := range blk.Vertices {
				if !dec.IsCut[v] && d.HasEdge(zc, v) {
					found = v
					break
				}
			}
			if found >= 0 {
				picks = append(picks, found)
			}
			if len(picks) == 2 {
				break
			}
		}
		if len(picks) == 2 && !d.HasEdge(picks[0], picks[1]) {
			return picks[0], picks[1], zc, nil, nil
		}
	}
	// Case 2: d is 3-connected — any non-adjacent pair at distance 2 works.
	for zc := 0; zc < n; zc++ {
		nbrs := d.Neighbors(zc)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := int(nbrs[i]), int(nbrs[j])
				if d.HasEdge(a, b) {
					continue
				}
				if order := try(a, b, zc); order != nil {
					return a, b, zc, order, nil
				}
			}
		}
	}
	return 0, 0, 0, nil, fmt.Errorf("seqcolor: internal: no Brooks triple found (is the block complete or a cycle?)")
}

// leafBlocks returns block indices with at most one block-tree neighbor.
// Two blocks share at most one vertex, so Adj lists each neighbor once.
func leafBlocks(bt *graph.BlockTree) []int {
	var out []int
	for i, adj := range bt.Adj {
		if len(adj) <= 1 {
			out = append(out, i)
		}
	}
	return out
}
