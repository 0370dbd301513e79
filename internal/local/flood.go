package local

import (
	"context"
	"sort"

	"distcolor/internal/graph"
)

// BallGraph is a node's collected knowledge: the induced ball of some radius
// around it, described over node IDs (not vertex indices — nodes do not know
// indices).
type BallGraph struct {
	CenterID int
	// IDs of the vertices in the ball, sorted ascending.
	IDs []int
	// Edges between ball members as ID pairs (idA < idB), sorted.
	Edges [][2]int
}

// floodProgram implements knowledge flooding: in every round each node
// broadcasts everything new it learned (its ID, its incident edges, and all
// previously received knowledge). After r+1 rounds a node knows the induced
// ball of radius r around itself. Message sizes are unbounded — this is the
// LOCAL model's defining freedom.
//
// Knowledge is held in sorted slices and every reception is a two-pointer
// merge: duplicates (the overwhelmingly common case after the first rounds,
// since neighbors flood overlapping balls) are discarded in one linear scan
// with zero allocation, and only genuinely fresh items are merged in. The
// earlier map-of-maps representation paid a hash lookup and heap traffic
// per (item × neighbor × round); the sorted form is what makes large-ball
// collection tractable.
type floodProgram struct {
	info   NodeInfo
	rounds int      // total rounds to run (radius + 1)
	known  []int    // IDs known so far, sorted ascending
	edges  [][2]int // edges known so far, sorted lexicographically
	// newly learned items since the last send; sorted on send
	dirtyIDs []int
	dirtyEs  [][2]int
	freshBuf []int    // reusable scratch for id merges
	freshEs  [][2]int // reusable scratch for edge merges
}

type floodMsg struct {
	from  int      // sender's ID — reveals the incident edge to the receiver
	ids   []int    // sorted ascending
	edges [][2]int // sorted lexicographically
}

func (p *floodProgram) Init(info NodeInfo) {
	p.info = info
	p.known = []int{info.ID}
	p.dirtyIDs = []int{info.ID}
}

// mergeIDs folds the sorted id list add into p.known, recording genuinely
// new ids in p.dirtyIDs. Zero allocation when add ⊆ known.
func (p *floodProgram) mergeIDs(add []int) {
	fresh := p.freshBuf[:0]
	i := 0
	for _, x := range add {
		for i < len(p.known) && p.known[i] < x {
			i++
		}
		if i >= len(p.known) || p.known[i] != x {
			fresh = append(fresh, x)
		}
	}
	p.freshBuf = fresh
	if len(fresh) == 0 {
		return
	}
	p.known = mergeSortedInts(p.known, fresh)
	p.dirtyIDs = append(p.dirtyIDs, fresh...)
}

// mergeEdges folds the sorted edge list add into p.edges, recording new
// edges in p.dirtyEs.
func (p *floodProgram) mergeEdges(add [][2]int) {
	fresh := p.freshEs[:0]
	i := 0
	for _, e := range add {
		for i < len(p.edges) && edgeLess(p.edges[i], e) {
			i++
		}
		if i >= len(p.edges) || p.edges[i] != e {
			fresh = append(fresh, e)
		}
	}
	p.freshEs = fresh
	if len(fresh) == 0 {
		return
	}
	p.edges = mergeSortedEdges(p.edges, fresh)
	p.dirtyEs = append(p.dirtyEs, fresh...)
}

func (p *floodProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		m, ok := in.Msg.(floodMsg)
		if !ok {
			continue
		}
		p.mergeIDs(m.ids)
		p.mergeEdges(m.edges)
		p.mergeIDs([]int{m.from})
		// learning a neighbor's ID reveals the incident edge
		p.mergeEdges([][2]int{edgeIDKey(p.info.ID, m.from)})
	}
	if round > p.rounds {
		// Final step: merge the last receptions and halt without sending —
		// this is the output phase, not a communication round.
		return nil, true
	}
	// dirty accumulates fresh batches from several senders; restore the
	// sorted-message invariant before broadcasting.
	sort.Ints(p.dirtyIDs)
	sort.Slice(p.dirtyEs, func(i, j int) bool { return edgeLess(p.dirtyEs[i], p.dirtyEs[j]) })
	out := floodMsg{from: p.info.ID, ids: p.dirtyIDs, edges: p.dirtyEs}
	p.dirtyIDs = nil
	p.dirtyEs = nil
	return []Outbound{{Port: Broadcast, Msg: out}}, false
}

// Output restricts the collected knowledge to the induced ball of radius
// rounds-1: after r+1 rounds of flooding a node knows a superset (IDs up to
// distance r+1 and their incident edges); it computes exact distances up to
// r+1 inside its knowledge graph and keeps the radius-r induced ball. This
// per-node BFS is real work — the engine runs Output on its worker pool,
// so the restriction step parallelizes along with the flooding itself.
func (p *floodProgram) Output() any {
	radius := p.rounds - 1
	// Index the sorted ID universe and build a CSR adjacency over it.
	idIndex := func(id int) int { return sort.SearchInts(p.known, id) }
	k := len(p.known)
	deg := make([]int32, k+1)
	for _, e := range p.edges {
		deg[idIndex(e[0])+1]++
		deg[idIndex(e[1])+1]++
	}
	for i := 1; i <= k; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, deg[k])
	cursor := append([]int32(nil), deg[:k]...)
	for _, e := range p.edges {
		a, b := idIndex(e[0]), idIndex(e[1])
		adj[cursor[a]] = int32(b)
		cursor[a]++
		adj[cursor[b]] = int32(a)
		cursor[b]++
	}
	// BFS from our own ID up to the radius.
	dist := make([]int, k)
	for i := range dist {
		dist[i] = -1
	}
	self := idIndex(p.info.ID)
	dist[self] = 0
	queue := make([]int32, 0, k)
	queue = append(queue, int32(self))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] >= radius {
			continue
		}
		for _, w := range adj[deg[u]:deg[u+1]] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	ids := make([]int, 0, len(queue))
	for i, id := range p.known {
		if dist[i] >= 0 {
			ids = append(ids, id)
		}
	}
	var edges [][2]int
	for _, e := range p.edges {
		if dist[idIndex(e[0])] >= 0 && dist[idIndex(e[1])] >= 0 {
			edges = append(edges, e)
		}
	}
	return BallGraph{CenterID: p.info.ID, IDs: ids, Edges: edges}
}

// edgeLess orders ID pairs lexicographically.
func edgeLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// mergeSortedInts merges two sorted disjoint slices into a new sorted slice.
func mergeSortedInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeSortedEdges merges two sorted disjoint edge slices into a new sorted
// slice.
func mergeSortedEdges(a, b [][2]int) [][2]int {
	out := make([][2]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if edgeLess(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func edgeIDKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// CollectBallsSync runs the genuine message-passing flooding protocol for
// radius+1 rounds and returns each node's collected BallGraph. It charges
// radius+1 rounds. Message sizes grow with ball sizes (the LOCAL model
// allows it), so wall time is bound by knowledge merging and the message
// plane — both of which the engine spreads across all cores.
func CollectBallsSync(ctx context.Context, nw *Network, ledger *Ledger, phase string, radius int) ([]BallGraph, error) {
	outs, err := RunSync(ctx, nw, ledger, phase, radius+3, func(v int) Program {
		return &floodProgram{rounds: radius + 1}
	})
	if err != nil {
		return nil, err
	}
	balls := make([]BallGraph, len(outs))
	for v, o := range outs {
		balls[v] = o.(BallGraph)
	}
	return balls, nil
}

// CollectBallsCentral computes, for every vertex with mask[v] true (nil =
// all), the induced ball of radius r in the masked graph, centrally, and
// charges r+1 LOCAL rounds once (all nodes collect in parallel). This is the
// standard LOCAL simulation shortcut: identical knowledge, identical cost.
func CollectBallsCentral(nw *Network, ledger *Ledger, phase string, radius int, mask []bool) []BallGraph {
	g := nw.G
	n := g.N()
	balls := make([]BallGraph, n)
	in := make([]bool, n)
	tr := new(graph.Traversal).Bind(g)
	var members []int
	for v := 0; v < n; v++ {
		if mask != nil && !mask[v] {
			continue
		}
		members = tr.AppendBall(members[:0], v, radius, mask)
		for _, u := range members {
			in[u] = true
		}
		ids := make([]int, 0, len(members))
		for _, u := range members {
			ids = append(ids, nw.ID[u])
		}
		sort.Ints(ids)
		var edges [][2]int
		for _, u := range members {
			for _, w := range g.Neighbors(u) {
				if int(w) > u && in[w] {
					edges = append(edges, edgeIDKey(nw.ID[u], nw.ID[int(w)]))
				}
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edgeLess(edges[i], edges[j]) })
		balls[v] = BallGraph{CenterID: nw.ID[v], IDs: ids, Edges: edges}
		for _, u := range members {
			in[u] = false
		}
	}
	if ledger != nil {
		ledger.Charge(phase, radius+1)
	}
	return balls
}

// BallToGraph materializes a BallGraph as a graph.Graph plus the sorted ID
// list mapping new indices to IDs.
func BallToGraph(b BallGraph) (*graph.Graph, []int) {
	idx := make(map[int]int, len(b.IDs))
	for i, id := range b.IDs {
		idx[id] = i
	}
	bld := graph.NewBuilder(len(b.IDs))
	for _, e := range b.Edges {
		bld.AddEdgeOK(idx[e[0]], idx[e[1]])
	}
	return bld.Graph(), append([]int(nil), b.IDs...)
}
