package core

import (
	"slices"

	"distcolor/internal/graph"
	"distcolor/internal/reduce"
	"distcolor/internal/ruling"
)

// peelState is the per-vertex state of one peeling run, allocated once per
// run: the alive vertices as an ascending list, their alive-degrees (kept
// current by peel, which decrements the alive neighbors of every removed
// vertex), the masks that happySet and extend fill from a vertex list and
// clear by the same list before they return, the run's traversals, and
// extend's ruling, schedule and ball workspaces. So each layer's work is
// proportional to the alive graph, not to n.
type peelState struct {
	g       *graph.Graph
	alive   []int // alive vertices, ascending
	isAlive []bool
	deg     []int // deg[v] is v's alive-degree while v is alive
	sources []int // happySet's witness list, reused across iterations
	// Masks, all false between uses: rich is G[R] for happySet and extend,
	// happy the happy set, comp one component of G[R] and ball one ball.
	rich, happy, comp, ball []bool
	// tr is the run's host traversal: happySet's searches and Gallai
	// tests, the ruling forest's searches and extend's ball carving and
	// induced copies. ballTr serves classifyComponent's per-vertex
	// fallback, which runs while a component lies in tr's search order.
	tr, ballTr graph.Traversal
	ruling     ruling.Workspace // extend's ruling forest
	sched      reduce.Workspace // extend's (Δ+1)-class schedule
	balls      ballWorkspace    // extend's layered pass and root balls
}

func newPeelState(g *graph.Graph) *peelState {
	n := g.N()
	s := &peelState{
		g:       g,
		alive:   make([]int, n),
		isAlive: make([]bool, n),
		deg:     make([]int, n),
		rich:    make([]bool, n),
		happy:   make([]bool, n),
		comp:    make([]bool, n),
		ball:    make([]bool, n),
	}
	for v := range n {
		s.alive[v] = v
		s.isAlive[v] = true
		s.deg[v] = g.Degree(v)
	}
	s.tr.Bind(g)
	return s
}

// peel removes the happy set from the alive graph.
func (s *peelState) peel(happy []int) {
	for _, v := range happy {
		s.isAlive[v] = false
	}
	for _, v := range happy {
		for _, w := range s.g.Neighbors(v) {
			if s.isAlive[w] {
				s.deg[w]--
			}
		}
	}
	s.alive = slices.DeleteFunc(s.alive, func(v int) bool { return !s.isAlive[v] })
}

// layer is one peel iteration's output, all lists ascending: the rich set
// R, the happy set A ⊆ R, and the minima of the components of G[R] whose
// every ball is the whole component and that are one bad block.
type layer struct {
	rich, happy, blocks []int
}

// happySet classifies the alive vertices into rich/poor and computes the
// happy set A (Section 3): v is rich when richTest(deg_alive(v)) holds; a
// rich vertex is happy when its radius-r ball inside the rich subgraph
// contains a witness vertex (witness(deg_alive(w)) — degree ≤ d−1 in the
// paper's Theorem 1.3 instantiation) or induces a non-Gallai graph.
//
// The classification is exact. Fast paths: witnesses are found by one
// multi-source BFS; components whose every ball saturates (r ≥ 2·ecc bound)
// are classified once; only the remaining vertices of non-Gallai components
// get individual ball inspections.
func happySet(s *peelState, radius int,
	richTest func(degAlive int, v int) bool,
	witness func(degAlive int, v int) bool) (IterationStats, layer) {

	st := IterationStats{Alive: len(s.alive)}
	richMask, happyMask := s.rich, s.happy
	for _, v := range s.alive {
		if richTest(s.deg[v], v) {
			richMask[v] = true
			st.Rich++
		}
	}
	st.Poor = st.Alive - st.Rich
	// R is kept for the extension, so it is sized to its count.
	rich := make([]int, 0, st.Rich)
	for _, v := range s.alive {
		if richMask[v] {
			rich = append(rich, v)
		}
	}

	tr := &s.tr
	// (a) witness path: multi-source BFS inside G[rich] from the witnesses.
	sources := slices.Grow(s.sources[:0], len(rich))
	for _, v := range rich {
		if witness(s.deg[v], v) {
			sources = append(sources, v)
		}
	}
	s.sources = sources
	if len(sources) > 0 {
		tr.Run(sources, richMask, radius)
		for _, v := range rich {
			if tr.Reached(v) {
				happyMask[v] = true
				st.HappyLow++
			}
		}
	}

	// (b) non-Gallai balls, per component of G[rich]. The components are
	// found by walking the rich list: a vertex still in richMask starts a
	// new component (it is that component's minimum), and each component
	// leaves richMask once settled. Later components' searches never miss
	// it, since no rich edge joins two components. The walk from comp[0]
	// covers exactly the component, so its depth is comp[0]'s eccentricity.
	var blocks []int // ascending, as the components' minima are met
	for i, v0 := range rich {
		if !richMask[v0] {
			continue
		}
		tr.Run(rich[i:i+1], richMask, -1)
		comp := tr.Order()
		if classifyComponent(s, comp, tr.MaxDist(), radius, &st) {
			blocks = append(blocks, v0)
		}
		for _, v := range comp {
			richMask[v] = false
		}
	}

	happy := make([]int, 0, st.HappyLow+st.HappyGal)
	for _, v := range rich {
		if happyMask[v] {
			happy = append(happy, v)
			happyMask[v] = false
		}
	}
	st.Happy = len(happy)
	return st, layer{rich, happy, blocks}
}

// classifyComponent marks the vertices of one component of G[rich] whose
// radius-r balls are not Gallai trees, adding them to s.happy. comp is
// s.tr's search order, and ecc is comp[0]'s eccentricity in the component.
// s.comp and s.ball are all false on entry and on return. It reports
// whether every ball of the component is the whole component and that is
// one bad block.
func classifyComponent(s *peelState, comp []int32, ecc, radius int, st *IterationStats) bool {
	happyMask, compMask, ballMask := s.happy, s.comp, s.ball
	if !slices.ContainsFunc(comp, func(v int32) bool { return !happyMask[v] }) {
		return false // all happy already
	}
	for _, v := range comp {
		compMask[v] = true
	}
	defer func() {
		for _, v := range comp {
			compMask[v] = false
		}
	}()
	// Component-level Gallai test: every ball of a Gallai tree is an
	// induced connected subgraph of it, hence a Gallai tree, so nobody
	// gains happiness here.
	gallai, bad := s.tr.IsGallaiForest(comp, compMask)
	if gallai {
		return false
	}
	// Saturation fast path: if radius ≥ 2·ecc(v0) then every ball is the
	// whole (non-Gallai) component.
	if radius >= 2*ecc {
		for _, v := range comp {
			if !happyMask[v] {
				happyMask[v] = true
				st.HappyGal++
			}
		}
		return bad == len(comp)
	}
	// Exact per-vertex fallback, on the second traversal: comp is s.tr's.
	tr := s.ballTr.Bind(s.g)
	for _, v := range comp {
		if happyMask[v] {
			continue
		}
		tr.Run([]int{int(v)}, compMask, radius)
		ball := tr.Order()
		for _, u := range ball {
			ballMask[u] = true
		}
		if ok, _ := tr.IsGallaiForest(ball, ballMask); !ok {
			happyMask[v] = true
			st.HappyGal++
		}
		for _, u := range ball {
			ballMask[u] = false
		}
	}
	return false
}
