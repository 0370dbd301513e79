// Package ruling implements (α, β)-ruling sets and ruling forests in the
// sense of Awerbuch, Goldberg, Luby and Plotkin (FOCS 1989), as used by
// Lemma 3.2 of the paper: given a subset U of vertices, a family of
// vertex-disjoint rooted trees such that every vertex of U lies in a tree,
// roots are pairwise at distance ≥ α, and tree depth is ≤ β = O(α log n).
//
// The ruling set is the classic bit-by-bit merge: maintain a candidate set
// (initially U); at bit level i, candidates whose IDs agree above bit i are
// merged — candidates with bit i = 1 survive only if no same-group
// candidate with bit i = 0 lies within distance < α. Each level costs α
// LOCAL rounds (a distance-α BFS); there are ⌈log₂(n+1)⌉ levels.
//
// The central simulation settles each connected component of the masked
// graph on its own, since no BFS leaves its component. In a component
// whose diameter bound is ≤ α−1 (saturated: with the paper's
// α = 2·⌈c·log n⌉+2 almost all of them) the merge provably leaves exactly
// the component's minimum-ID U vertex, so that vertex is elected in one
// pass. The other components' candidates are sorted by ID once; every
// level's groups are then contiguous runs of equal ID prefix, each settled
// by one bounded BFS from its bit-0 members. Either way the rulers are
// those of the merge, and the ledger is charged the merge's α rounds per
// level whatever the simulation skipped: the LOCAL algorithm is unchanged.
//
// The forest is then the multi-source BFS forest of the rulers, trimmed to
// the union of root paths of U-vertices; its construction costs depth
// rounds. All charges are recorded on the ledger.
package ruling

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// Forest is an (α, β)-ruling forest, stored as lists the size of the
// forest: Parent and Depth are aligned with Tree.
type Forest struct {
	Alpha int
	// Roots lists the ruling set (subset of U), ascending vertex order.
	Roots []int
	// Tree lists every vertex of the forest, ascending.
	Tree []int
	// Parent[i] is Tree[i]'s tree parent (-1 for roots).
	Parent []int
	// Depth[i] is Tree[i]'s distance to its root inside the tree.
	Depth []int
	// MaxDepth is the deepest tree node.
	MaxDepth int
}

// Workspace is the scratch of Compute, reused across calls: per-vertex
// component labels and root-path marks, each valid only where its stamp
// equals the call's epoch, and per-component diameter bounds and winners.
// Stale entries are never cleared (a stale stamp is older than every later
// epoch), so a call writes only the vertices it labels or keeps; emitting
// the tree reads the keep stamps once, in one ascending scan. The zero
// value is ready to use. A Workspace is owned by one goroutine at a time.
type Workspace struct {
	epoch   uint32
	labeled []uint32 // labeled[v] == epoch: comp[v] is v's component index
	comp    []int32
	kept    []uint32 // kept[v] == epoch: v lies on a U vertex's root path
	diamUB  []int    // diamUB[c] bounds component c's diameter
	winner  []int    // winner[c] is component c's minimum-ID U vertex
}

// begin starts a call on an n-vertex graph and returns its epoch.
func (s *Workspace) begin(n int) uint32 {
	if s.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² calls
		clear(s.labeled)
		clear(s.kept)
		s.epoch = 0
	}
	s.epoch++
	if n > len(s.labeled) {
		s.labeled = make([]uint32, n)
		s.comp = make([]int32, n)
		s.kept = make([]uint32, n)
	}
	return s.epoch
}

// Compute builds an (α, O(α log n))-ruling forest of the masked graph with
// respect to U. IDs come from the network (nw.ID); mask restricts the graph
// (nil = all vertices); every u ∈ U must satisfy the mask. Rounds are
// charged to the ledger under the given phase. Cancellation is cooperative:
// ctx is checked once per bit level (each level costs α LOCAL rounds).
// Every search runs on tr, which Compute binds to nw.G; the last search
// is left in it. Once s and tr are warm, allocation is proportional to
// the components holding U, not to n.
func (s *Workspace) Compute(ctx context.Context, nw *local.Network, tr *graph.Traversal, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) (*Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	if alpha < 1 {
		return nil, fmt.Errorf("ruling: alpha must be ≥ 1, got %d", alpha)
	}
	for _, v := range u {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("ruling: U vertex %d out of range", v)
		}
		if mask != nil && !mask[v] {
			return nil, fmt.Errorf("ruling: U vertex %d outside mask", v)
		}
	}

	// --- Phase 1: the ruling set. One traversal serves every BFS.
	tr.Bind(g)
	epoch := s.begin(n)

	// Label the components that hold U. 2·ecc of the first U vertex seen
	// bounds the component's diameter; a component is saturated when that
	// bound is ≤ α−1, i.e. every vertex in it is within distance < α of
	// every other.
	diamUB, winner := s.diamUB[:0], s.winner[:0]
	for i, v := range u {
		if s.labeled[v] == epoch {
			if c := s.comp[v]; nw.ID[v] < nw.ID[winner[c]] {
				winner[c] = v
			}
			continue
		}
		tr.Run(u[i:i+1], mask, -1)
		c := int32(len(diamUB))
		diamUB = append(diamUB, 2*tr.MaxDist())
		winner = append(winner, v)
		for _, w := range tr.Order() {
			s.labeled[w] = epoch
			s.comp[w] = c
		}
	}
	s.diamUB, s.winner = diamUB, winner

	// A saturated component's tournament leaves exactly its minimum-ID U
	// vertex: after level b each (component, ID>>(b+1)) class keeps only
	// its minimum, since a bit-0 member always lies within distance < α of
	// the bit-1 member it competes with. Only the other components' U
	// vertices run the merge, sorted by ID once so that every level's
	// groups are contiguous runs of equal ID prefix with the bit-0 members
	// first. Every component yields at least one ruler, so cand, which
	// becomes the ruler list, starts with room for one per component.
	cand := make([]int, 0, len(winner))
	for _, v := range u {
		if diamUB[s.comp[v]] > alpha-1 {
			cand = append(cand, v)
		}
	}
	slices.SortFunc(cand, func(a, b int) int { return cmp.Compare(nw.ID[a], nw.ID[b]) })
	cand = slices.Compact(cand) // U may repeat a vertex
	levels := bits.Len(uint(n)) // IDs are 1..n
	for bit := 0; bit < levels; bit++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each run drops the bit-1 members within distance < α of a bit-0
		// member, compacting cand in place: the write index never passes
		// the read index, and each run's BFS reads its sources before the
		// write index reaches them.
		live := cand[:0]
		for i := 0; i < len(cand); {
			prefix := nw.ID[cand[i]] >> (bit + 1)
			ones, end := i, i
			for end < len(cand) && nw.ID[cand[end]]>>(bit+1) == prefix {
				if (nw.ID[cand[end]]>>bit)&1 == 0 {
					ones++
				}
				end++
			}
			// cand[i:ones] holds the run's bit-0 members, cand[ones:end]
			// its bit-1 members.
			if ones == i || ones == end {
				live = append(live, cand[i:end]...)
				i = end
				continue
			}
			tr.Run(cand[i:ones], mask, alpha-1)
			live = append(live, cand[i:ones]...)
			for _, v := range cand[ones:end] {
				if !tr.Reached(v) {
					live = append(live, v)
				}
			}
			i = end
		}
		cand = live
		if ledger != nil {
			ledger.Charge(phase, alpha)
		}
	}
	roots := cand
	for c, w := range winner {
		if diamUB[c] <= alpha-1 {
			roots = append(roots, w)
		}
	}
	slices.Sort(roots)

	// --- Phase 2: BFS forest from the rulers, trimmed to U's root paths.
	tr.Run(roots, mask, -1)
	for _, v := range u {
		if !tr.Reached(v) {
			return nil, fmt.Errorf("ruling: U vertex %d unreachable from rulers", v)
		}
	}
	size := 0
	for _, v := range u {
		for x := v; x != -1 && s.kept[x] != epoch; x = tr.Parent(x) {
			s.kept[x] = epoch
			size++
		}
	}
	// Emit the tree ascending by reading it off the marks in one scan.
	tree := make([]int, 0, size) // non-nil even when U is empty
	for v, k := range s.kept[:n] {
		if k == epoch {
			tree = append(tree, v)
		}
	}
	f := &Forest{
		Alpha:  alpha,
		Roots:  roots,
		Tree:   tree,
		Parent: make([]int, len(tree)),
		Depth:  make([]int, len(tree)),
	}
	for i, v := range tree {
		f.Parent[i] = tr.Parent(v)
		f.Depth[i] = tr.Dist(v)
		f.MaxDepth = max(f.MaxDepth, f.Depth[i])
	}
	if ledger != nil {
		ledger.Charge(phase, f.MaxDepth+1)
	}
	return f, nil
}

// IndependentRulingSet computes a (2, O(log n))-ruling set of the masked
// graph with respect to U: an independent subset of U such that every
// vertex of U is within O(log n) hops of a member. With U = V this is a
// maximal-independent-set-grade symmetry-breaking primitive, obtained here
// deterministically from the same AGLP machinery (α = 2 makes "distance
// ≥ α" mean exactly "non-adjacent"). It runs on a fresh workspace.
func IndependentRulingSet(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int) ([]int, error) {
	var s Workspace
	f, err := s.Compute(ctx, nw, new(graph.Traversal), ledger, phase, mask, u, 2)
	if err != nil {
		return nil, err
	}
	return f.Roots, nil
}

// VerifyInvariants checks the (α, β) ruling-forest properties against the
// masked graph: roots ⊆ U... (roots are rulers chosen from U), pairwise root
// distance ≥ α, U coverage, an ascending tree list with aligned fields,
// parent adjacency, acyclicity and the depth bound β. Used by tests and the
// experiment harness.
func (f *Forest) VerifyInvariants(g *graph.Graph, mask []bool, u []int, beta int) error {
	// roots pairwise ≥ alpha apart
	for _, r := range f.Roots {
		res := g.BFS([]int{r}, mask, f.Alpha-1)
		for _, r2 := range f.Roots {
			if r2 != r && res.Dist[r2] >= 0 {
				return fmt.Errorf("ruling: roots %d,%d at distance %d < α=%d", r, r2, res.Dist[r2], f.Alpha)
			}
		}
	}
	if len(f.Parent) != len(f.Tree) || len(f.Depth) != len(f.Tree) {
		return fmt.Errorf("ruling: %d tree vertices but %d parents and %d depths",
			len(f.Tree), len(f.Parent), len(f.Depth))
	}
	pos := make(map[int]int, len(f.Tree))
	for i, v := range f.Tree {
		if i > 0 && v <= f.Tree[i-1] {
			return fmt.Errorf("ruling: tree list not strictly ascending at %d", v)
		}
		pos[v] = i
	}
	// U covered
	for _, v := range u {
		if _, ok := pos[v]; !ok {
			return fmt.Errorf("ruling: U vertex %d not in any tree", v)
		}
	}
	// structure
	for i, v := range f.Tree {
		if mask != nil && !mask[v] {
			return fmt.Errorf("ruling: tree vertex %d outside mask", v)
		}
		p := f.Parent[i]
		if p == -1 {
			if f.Depth[i] != 0 {
				return fmt.Errorf("ruling: root %d with depth %d", v, f.Depth[i])
			}
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("ruling: parent %d of %d not adjacent", p, v)
		}
		j, ok := pos[p]
		if !ok {
			return fmt.Errorf("ruling: parent %d of %d outside forest", p, v)
		}
		if f.Depth[i] != f.Depth[j]+1 {
			return fmt.Errorf("ruling: depth mismatch at %d", v)
		}
		if f.Depth[i] > beta {
			return fmt.Errorf("ruling: depth %d exceeds β=%d", f.Depth[i], beta)
		}
	}
	return nil
}
