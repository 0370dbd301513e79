// Package decomp implements network decompositions (Awerbuch et al.;
// Panconesi–Srinivasan [24] in the paper's references): a partition of the
// vertex set into clusters, each assigned one of q colors, such that
// clusters of the same color are pairwise non-adjacent and every cluster
// has diameter ≤ diam. The paper notes that with such decompositions the
// round complexity of Theorem 1.3 becomes d³·2^O(√log n); this package
// provides the decomposition object itself (via the classical sequential
// ball-carving construction with (q, diam) = (log n, 2 log n)) together
// with the decomposition-based (deg+1)-list-coloring that underlies that
// remark, so the trade-off can be measured.
//
// The distributed construction achieving 2^O(√log n) rounds
// (Panconesi–Srinivasan) is out of scope, as in the paper; the *use* of a
// decomposition is charged faithfully: color classes are processed
// sequentially and each cluster is solved in O(diameter) rounds.
package decomp

import (
	"fmt"

	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// Decomposition is a (colors, diameter) network decomposition.
type Decomposition struct {
	// Cluster[v] identifies v's cluster (0-based, dense).
	Cluster []int
	// Color[c] is the color of cluster c.
	Color []int
	// Colors is the number of colors used.
	Colors int
	// Radius bounds every cluster's radius from its carving center.
	Radius int
}

// Carve builds a (≤ log₂ n colors, ≤ 2·log₂ n diameter) decomposition of
// the masked graph with the classical doubling ball-carving: repeatedly
// grow a ball around an uncarved vertex while it at least doubles; carve
// its interior as a cluster and block its boundary for this color. Each
// color round carves at least half of the vertices it touches, so there
// are ≤ log₂ n colors; radii are ≤ log₂ n by the doubling argument.
func Carve(g *graph.Graph, mask []bool) *Decomposition {
	n := g.N()
	d := &Decomposition{Cluster: make([]int, n), Color: nil}
	for v := range d.Cluster {
		d.Cluster[v] = -1
	}
	carved := make([]bool, n)
	inMask := func(v int) bool { return mask == nil || mask[v] }
	remaining := 0
	for v := 0; v < n; v++ {
		if inMask(v) {
			remaining++
		}
	}
	tr := new(graph.Traversal).Bind(g)
	color := 0
	for remaining > 0 {
		blocked := make([]bool, n)
		progressed := false
		for v := 0; v < n; v++ {
			if !inMask(v) || carved[v] || blocked[v] {
				continue
			}
			// Grow a ball in the uncarved, unblocked masked graph: blocked
			// vertices shield previously carved same-color clusters, which
			// keeps same-color clusters pairwise non-adjacent.
			avail := make([]bool, n)
			for u := 0; u < n; u++ {
				avail[u] = inMask(u) && !carved[u] && !blocked[u]
			}
			// Doubling growth on one traversal: each bounded run yields both
			// |B_r| (prefix of Order with dist ≤ r) and |B_{r+1}| (all of it).
			r := 0
			prevSize := 1
			for {
				tr.Run([]int{v}, avail, r+1)
				if len(tr.Order()) <= 2*prevSize {
					break
				}
				prevSize = len(tr.Order())
				r++
			}
			order := tr.Order()
			var cluster, boundary []int
			for _, u32 := range order {
				u := int(u32)
				if tr.Dist(u) <= r {
					cluster = append(cluster, u)
				} else {
					boundary = append(boundary, u)
				}
			}
			cid := len(d.Color)
			for _, u := range cluster {
				d.Cluster[u] = cid
				carved[u] = true
			}
			for _, u := range boundary {
				blocked[u] = true
			}
			if r > d.Radius {
				d.Radius = r
			}
			d.Color = append(d.Color, color)
			remaining -= len(cluster)
			progressed = true
		}
		if !progressed {
			panic("decomp: carving made no progress")
		}
		color++
	}
	d.Colors = color
	return d
}

// Verify checks the decomposition invariants against the masked graph:
// full coverage, same-color clusters non-adjacent, cluster radius ≤ bound.
func (d *Decomposition) Verify(g *graph.Graph, mask []bool, maxColors, maxRadius int) error {
	n := g.N()
	members := map[int][]int{}
	for v := 0; v < n; v++ {
		if mask != nil && !mask[v] {
			if d.Cluster[v] != -1 {
				return fmt.Errorf("decomp: masked-out vertex %d in a cluster", v)
			}
			continue
		}
		c := d.Cluster[v]
		if c < 0 || c >= len(d.Color) {
			return fmt.Errorf("decomp: vertex %d uncovered", v)
		}
		members[c] = append(members[c], v)
	}
	if d.Colors > maxColors {
		return fmt.Errorf("decomp: %d colors > %d", d.Colors, maxColors)
	}
	if d.Radius > maxRadius {
		return fmt.Errorf("decomp: radius %d > %d", d.Radius, maxRadius)
	}
	// same-color clusters non-adjacent
	for v := 0; v < n; v++ {
		if d.Cluster[v] == -1 {
			continue
		}
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if d.Cluster[w] == -1 || d.Cluster[w] == d.Cluster[v] {
				continue
			}
			if d.Color[d.Cluster[w]] == d.Color[d.Cluster[v]] {
				return fmt.Errorf("decomp: adjacent same-color clusters %d,%d (edge %d-%d)",
					d.Cluster[v], d.Cluster[w], v, w)
			}
		}
	}
	// connectivity & diameter of each cluster
	for c, vs := range members {
		cmask := make([]bool, n)
		for _, v := range vs {
			cmask[v] = true
		}
		if !g.IsConnected(cmask) {
			return fmt.Errorf("decomp: cluster %d disconnected", c)
		}
		if ecc := g.Eccentricity(vs[0], cmask); ecc > 2*maxRadius {
			return fmt.Errorf("decomp: cluster %d diameter too large", c)
		}
	}
	return nil
}

// DegPlusOneListColor colors the masked graph from lists with
// |L(v)| ≥ deg_mask(v)+1 using the decomposition: color classes are
// processed sequentially; within a class every cluster gathers its ball
// (O(diameter) rounds, charged) and extends the current partial coloring
// greedily — always possible with deg+1 lists. Total rounds
// O(colors · diameter): the O(log² n) figure behind the paper's network-
// decomposition remark.
func DegPlusOneListColor(nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, d *Decomposition, lists [][]int) ([]int, error) {

	g := nw.G
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = seqcolor.Uncolored
	}
	degs := g.DegreesInMask(mask, nil)
	for v := 0; v < n; v++ {
		if mask != nil && !mask[v] {
			continue
		}
		if len(lists[v]) < degs[v]+1 {
			return nil, fmt.Errorf("decomp: vertex %d needs a (deg+1)-list", v)
		}
	}
	// Bucket by cluster color, in vertex order: within a class every
	// cluster leader gathers its ball and colors it greedily (sequential
	// inside, parallel across same-color clusters, which are non-adjacent).
	classes := make([][]int, d.Colors)
	for v := 0; v < n; v++ {
		if c := d.Cluster[v]; c != -1 {
			classes[d.Color[c]] = append(classes[d.Color[c]], v)
		}
	}
	for _, class := range classes {
		if err := seqcolor.GreedyInOrder(g, colors, seqcolor.Given(lists), class); err != nil {
			return nil, fmt.Errorf("decomp: %w", err)
		}
		if ledger != nil {
			ledger.Charge(phase, 2*d.Radius+2)
		}
	}
	return colors, nil
}
