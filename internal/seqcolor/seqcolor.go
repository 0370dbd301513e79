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

// NumColors returns the number of distinct colors used.
func NumColors(colors []int) int {
	set := map[int]bool{}
	for _, c := range colors {
		if c != Uncolored {
			set[c] = true
		}
	}
	return len(set)
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
// vertices; it fails if some vertex has no free color.
func GreedyInOrder(g *graph.Graph, colors []int, lists [][]int, order []int) error {
	b := graph.AcquireBitset(0)
	defer graph.ReleaseBitset(b)
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

// reverseBFSOrder returns the vertices of the masked component of src in
// order of decreasing BFS distance from src (src last). Processing in this
// order guarantees every vertex except src has an uncolored neighbor (its
// BFS parent) at coloring time.
func reverseBFSOrder(g *graph.Graph, src int, mask []bool) []int {
	tr := g.AcquireTraversal()
	tr.Run([]int{src}, mask, -1)
	fwd := tr.Order() // nondecreasing distance; emit it reversed
	order := make([]int, len(fwd))
	for i, v := range fwd {
		order[len(fwd)-1-i] = int(v)
	}
	g.ReleaseTraversal(tr)
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
func DegreeListColor(g *graph.Graph, colors []int, lists [][]int) error {
	n := g.N()
	if len(colors) != n || len(lists) != n {
		return fmt.Errorf("seqcolor: size mismatch")
	}
	uncMask := make([]bool, n)
	for v := 0; v < n; v++ {
		if colors[v] == Uncolored {
			uncMask[v] = true
		}
	}
	// One mask for all components, cleared between uses, so a graph with
	// many small components (forests, peeled balls) does not pay O(n) per
	// component.
	compMask := make([]bool, n)
	for _, comp := range g.Components(uncMask) {
		for _, v := range comp {
			compMask[v] = true
		}
		err := degreeListColorComponent(g, colors, lists, comp, compMask)
		for _, v := range comp {
			compMask[v] = false
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// backing array: each list is a capped sub-slice, so an append to one can
// never spill into the next.
func EffectiveLists(g *graph.Graph, colors []int, lists [][]int, verts []int) [][]int {
	total := 0
	for _, v := range verts {
		total += len(lists[v])
	}
	flat := make([]int, 0, total)
	eff := make([][]int, len(verts))
	b := graph.AcquireBitset(0)
	for i, v := range verts {
		start := len(flat)
		flat = appendEffectiveList(flat, g, colors, lists[v], v, b)
		eff[i] = flat[start:len(flat):len(flat)]
	}
	graph.ReleaseBitset(b)
	return eff
}

// degreeListColorComponent colors one uncolored component. compMask must be
// true exactly on comp's vertices; the caller owns (and clears) it.
func degreeListColorComponent(g *graph.Graph, colors []int, lists [][]int, comp []int, compMask []bool) error {
	// Pass 1: validate the hypothesis, and find a surplus vertex if any.
	scratch := graph.AcquireBitset(0)
	surplus := -1
	for _, v := range comp {
		es := 0
		ud := scanFree(g, colors, lists[v], v, scratch, func(int) bool {
			es++
			return true
		})
		if es < ud {
			graph.ReleaseBitset(scratch)
			return fmt.Errorf("%w (vertex %d: list %d < uncolored degree %d)", ErrListTooSmall, v, es, ud)
		}
		if es > ud && surplus == -1 {
			surplus = v
		}
	}
	graph.ReleaseBitset(scratch)
	if surplus != -1 {
		order := reverseBFSOrder(g, surplus, compMask)
		if err := GreedyInOrder(g, colors, lists, order); err != nil {
			return fmt.Errorf("surplus path: %w", err)
		}
		return nil
	}
	// Tight everywhere. Find a bad block of the component.
	dec := g.Blocks(compMask)
	bad := graph.FirstBadBlock(dec)
	if bad == -1 {
		return gallaiTightFallback(g, colors, lists, comp, compMask)
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
		if err := GreedyInOrder(g, colors, lists, vs[:len(vs)-1]); err != nil {
			return fmt.Errorf("seqcolor: internal: block peel: %w", err)
		}
	}
	// Root (bad) block: all of it is uncolored now; solve it.
	return colorBadBlock(g, colors, lists, &dec.Blocks[bad])
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
func gallaiTightFallback(g *graph.Graph, colors []int, lists [][]int, comp []int, compMask []bool) error {
	b := graph.AcquireBitset(0)
	defer graph.ReleaseBitset(b)
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
			sub := make([]bool, g.N())
			for _, v := range comp {
				sub[v] = colors[v] == Uncolored
			}
			subMask := make([]bool, g.N())
			for _, c2 := range g.Components(sub) {
				for _, v := range c2 {
					subMask[v] = true
				}
				err := degreeListColorComponent(g, colors, lists, c2, subMask)
				for _, v := range c2 {
					subMask[v] = false
				}
				if err != nil {
					return &GallaiTightError{Component: append([]int(nil), comp...)}
				}
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
func colorBadBlock(g *graph.Graph, colors []int, lists [][]int, blk *graph.Block) error {
	d, verts, err := blockGraph(g, blk)
	if err != nil {
		return err
	}
	// A block that is all of g leaves no vertex of g colored, so its
	// effective lists are the lists themselves (colorTwoConnectedTight
	// only reads them).
	eff := lists
	if verts != nil {
		eff = EffectiveLists(g, colors, lists, verts)
	}
	sub := make([]int, d.N())
	for i := range sub {
		sub[i] = Uncolored
	}
	if err := colorTwoConnectedTight(d, sub, eff); err != nil {
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
// the sorted vertex set. When the block spans all of g it is g itself, and
// verts is nil (the identity).
func blockGraph(g *graph.Graph, blk *graph.Block) (d *graph.Graph, verts []int, err error) {
	d = g
	if len(blk.Vertices) != g.N() {
		verts = slices.Clone(blk.Vertices)
		slices.Sort(verts)
		if d, _, err = g.Induced(verts); err != nil {
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
func colorTwoConnectedTight(d *graph.Graph, sub []int, eff [][]int) error {
	n := d.N()
	// (a) surplus inside the block (can appear after peeling).
	for v := 0; v < n; v++ {
		if len(eff[v]) > d.Degree(v) {
			order := reverseBFSOrder(d, v, nil)
			return GreedyInOrder(d, sub, eff, order)
		}
	}
	// (b) an edge with different lists: color u with a ∈ L(u)\L(w); w gains
	// surplus; finish by reverse BFS from w in d−u (connected: d 2-connected).
	for u := 0; u < n; u++ {
		for _, w32 := range d.Neighbors(u) {
			w := int(w32)
			if a, ok := colorInFirstNotSecond(eff[u], eff[w]); ok {
				sub[u] = a
				mask := make([]bool, n)
				for i := range mask {
					mask[i] = i != u
				}
				order := reverseBFSOrder(d, w, mask)
				return GreedyInOrder(d, sub, eff, order)
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
	x, y, z, err := brooksTriple(d)
	if err != nil {
		return err
	}
	a := eff[x][0]
	sub[x] = a
	sub[y] = a
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i != x && i != y
	}
	order := reverseBFSOrder(d, z, mask)
	return GreedyInOrder(d, sub, eff, order)
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

// brooksTriple finds x, y, z with x,y ∈ N(z), x,y non-adjacent and
// d−{x,y} connected, in a 2-connected non-complete graph d. (Lovász's
// lemma, algorithmic form.)
func brooksTriple(d *graph.Graph) (x, y, z int, err error) {
	n := d.N()
	// One mask for every candidate: all true, with the probed vertices
	// cleared for the call and restored after it.
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = true
	}
	// Fast path: in well-connected graphs (the typical case) almost any
	// distance-2 pair works; try a bounded number of candidates before the
	// exhaustive block-structure search.
	tried := 0
	for zc := 0; zc < n && tried < 32; zc++ {
		nbrs := d.Neighbors(zc)
		for i := 0; i < len(nbrs) && tried < 32; i++ {
			for j := i + 1; j < len(nbrs) && tried < 32; j++ {
				a, b := int(nbrs[i]), int(nbrs[j])
				if d.HasEdge(a, b) {
					continue
				}
				tried++
				mask[a], mask[b] = false, false
				connected := d.IsConnected(mask)
				mask[a], mask[b] = true, true
				if connected {
					return a, b, zc, nil
				}
			}
		}
	}
	// Case 1: some z leaves a cut vertex in d−z ⇒ pick interior neighbors
	// of z in two different leaf blocks of d−z.
	for zc := 0; zc < n; zc++ {
		mask[zc] = false
		dec := d.Blocks(mask)
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
			return picks[0], picks[1], zc, nil
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
				mask[a], mask[b] = false, false
				connected := d.IsConnected(mask)
				mask[a], mask[b] = true, true
				if connected {
					return a, b, zc, nil
				}
			}
		}
	}
	return 0, 0, 0, fmt.Errorf("seqcolor: internal: no Brooks triple found (is the block complete or a cycle?)")
}

// leafBlocks returns block indices with at most one block-tree neighbor.
func leafBlocks(bt *graph.BlockTree) []int {
	var out []int
	for i := range bt.Adj {
		distinct := map[int]bool{}
		for _, nb := range bt.Adj[i] {
			distinct[nb] = true
		}
		if len(distinct) <= 1 {
			out = append(out, i)
		}
	}
	return out
}
