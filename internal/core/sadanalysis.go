package core

import (
	"distcolor/internal/graph"
)

// Fig4Stats reports the measurable quantities of Proposition 4.4 and its
// two-step construction (Figure 4) applied to the sad set S of the first
// peeling iteration.
type Fig4Stats struct {
	// N and D echo the instance.
	N, D int
	// Rich, Happy, Sad are the first-iteration classification sizes.
	Rich, Happy, Sad int
	// LowDegInS counts vertices of degree ≤ d−1 in G[S]; Prop 4.4 lower-
	// bounds it by |S|/12.
	LowDegInS int
	// Prop44Bound is ⌈|S|/12⌉ (0 when S is empty).
	Prop44Bound int
	// CliqueBlocks counts the local clique blocks (size ≥ 3) contracted in
	// step 1 of the construction.
	CliqueBlocks int
	// Suppressed counts the degree-2 vertices suppressed in step 2.
	Suppressed int
	// HVertices, HEdges, HGirth describe the resulting graph H
	// (HGirth = -1 when H is a forest).
	HVertices, HEdges, HGirth int
	// HDeg2 counts vertices of degree ≤ 2 in H — the quantity Prop 4.4
	// converts into low-degree vertices of G[S].
	HDeg2 int
	// HAvgDegree is 2·HEdges/HVertices (0 when H is empty). Prop 4.4's
	// counting argument drives it below 11/4.
	HAvgDegree float64
}

// SadAnalysis classifies the graph with Theorem 1.3's predicates (one
// iteration, no peeling) and applies the Figure 4 construction to G[S]:
// contract every local clique block (≥3 vertices) to a star through a new
// hub, then suppress the degree-2 set T. Local blocks are computed on the
// components of G[S] (exact whenever the happy-ball radius saturates the
// components, which is the default-c regime; the construction remains a
// faithful measurement otherwise).
func SadAnalysis(g *graph.Graph, d, radius int) Fig4Stats {
	n := g.N()
	witness := func(degAlive int, v int) bool { return degAlive <= d-1 }
	richTest := func(degAlive int, v int) bool { return degAlive <= d }
	st, lay := happySet(newPeelState(g), radius, richTest, witness)
	rich, happy := lay.rich, lay.happy

	stats := Fig4Stats{N: n, D: d, Rich: st.Rich, Happy: st.Happy}
	sadMask := make([]bool, n)
	for _, v := range rich {
		sadMask[v] = true
	}
	for _, v := range happy {
		sadMask[v] = false
	}
	for _, v := range rich {
		if sadMask[v] {
			stats.Sad++
		}
	}
	if stats.Sad == 0 {
		return stats
	}
	stats.Prop44Bound = (stats.Sad + 11) / 12

	// degree ≤ d−1 within G[S]
	for v := 0; v < n; v++ {
		if sadMask[v] && g.DegreeInMask(v, sadMask) <= d-1 {
			stats.LowDegInS++
		}
	}

	// ---- Figure 4 construction.
	// Mutable adjacency over original sad vertices plus clique hubs.
	adj := map[int]map[int]bool{}
	addEdge := func(u, v int) {
		if adj[u] == nil {
			adj[u] = map[int]bool{}
		}
		if adj[v] == nil {
			adj[v] = map[int]bool{}
		}
		adj[u][v] = true
		adj[v][u] = true
	}
	for v := 0; v < n; v++ {
		if !sadMask[v] {
			continue
		}
		adj[v] = map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if sadMask[w] && int(w) > v {
				addEdge(v, int(w))
			}
		}
	}
	degInS := func(v int) int { return g.DegreeInMask(v, sadMask) }

	// Step 1: contract local clique blocks of size ≥ 3 through hubs.
	dec := g.Blocks(sadMask)
	next := n // hub ids start after original vertices
	for i := range dec.Blocks {
		blk := &dec.Blocks[i]
		k := len(blk.Vertices)
		if k < 3 || len(blk.Edges) != k*(k-1)/2 {
			continue
		}
		stats.CliqueBlocks++
		hub := next
		next++
		for _, e := range blk.Edges {
			delete(adj[e[0]], e[1])
			delete(adj[e[1]], e[0])
		}
		for _, v := range blk.Vertices {
			addEdge(hub, v)
		}
	}

	// Step 2: suppress T = vertices that had degree ≥ 3 in G[S] but now
	// have degree 2 (hubs are never suppressed: they keep degree ≥ 3).
	inT := func(v int) bool {
		return v < n && len(adj[v]) == 2 && degInS(v) >= 3
	}
	changed := true
	for changed {
		changed = false
		for v := range adj {
			if !inT(v) {
				continue
			}
			var nbrs []int
			for w := range adj[v] {
				nbrs = append(nbrs, w)
			}
			if len(nbrs) != 2 {
				continue
			}
			a, b := nbrs[0], nbrs[1]
			delete(adj[a], v)
			delete(adj[b], v)
			delete(adj, v)
			if a != b && !adj[a][b] {
				addEdge(a, b)
			}
			stats.Suppressed++
			changed = true
		}
	}

	// ---- Measure H.
	idx := map[int]int{}
	for v := range adj {
		idx[v] = len(idx)
	}
	b := graph.NewBuilder(len(idx))
	for v, nbrs := range adj {
		for w := range nbrs {
			if idx[v] < idx[w] {
				b.AddEdgeOK(idx[v], idx[w])
			}
		}
	}
	h := b.Graph()
	stats.HVertices = h.N()
	stats.HEdges = h.M()
	stats.HGirth = h.Girth(nil)
	for v := 0; v < h.N(); v++ {
		if h.Degree(v) <= 2 {
			stats.HDeg2++
		}
	}
	if h.N() > 0 {
		stats.HAvgDegree = 2 * float64(h.M()) / float64(h.N())
	}
	return stats
}
