package graph

// Block is a biconnected component: a maximal 2-connected subgraph, or a
// bridge edge, or (degenerately) an isolated vertex is *not* a block — blocks
// always contain at least one edge.
type Block struct {
	// Vertices of the block, each listed once.
	Vertices []int
	// Edges of the block as (u,v) pairs with original vertex ids.
	Edges [][2]int
}

// BlockDecomposition is the result of a biconnected-component decomposition.
type BlockDecomposition struct {
	Blocks []Block
	// IsCut[v] reports whether v is an articulation point (cut vertex) of its
	// component.
	IsCut []bool
	// BlocksOf[v] lists the indices (into Blocks) of the blocks containing v.
	// Non-cut vertices belong to exactly one block (if they have an edge).
	BlocksOf [][]int
}

type blockEdge struct{ u, v int32 }

// dfsVert is one vertex's Hopcroft–Tarjan state, packed so that a visit
// touches one record instead of five parallel arrays. num is the discovery
// number (0 = unvisited); seen stamps the block the vertex was last emitted
// into (0 until its first block, which always follows its discovery).
type dfsVert struct {
	num, low, parent, iter, seen int32
}

// push appends x to s, doubling s's capacity when it is full. The DFS
// stacks start empty in a fresh traversal and grow with the walk, and
// append grows a large slice by about 1.25×, so on one long walk it would
// allocate several times the final stack.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), 16)), s...)
	}
	return append(s, x)
}

// blocksDFS is the Hopcroft–Tarjan core shared by Blocks and
// IsGallaiForest, on t's DFS records and stacks, which it allocates on
// first use and grows to a larger graph. It walks the masked graph from
// roots in verts order (nil: ascending), and a non-nil verts listing every
// masked vertex keeps the walk to their records: it clears just those (nil:
// all n), so the block stamps restart at 1 and fit in int32 (a walk emits
// at most m ≤ MaxInt32/2 blocks). For every block it calls sink with the
// block's edges as the segment of the edge stack they were popped from (so
// the block's edge order is seg read backwards) and its vertices in
// first-seen order along that pop. Both slices are transient — valid only
// during the call, reused for the next block; sink returns false to abort
// the walk early. markCut (may be nil) is called for articulation points,
// possibly more than once per vertex.
func (t *Traversal) blocksDFS(verts []int32, mask []bool, sink func(seg []blockEdge, verts []int) bool, markCut func(int)) {
	g := t.g
	n := g.N()
	if n > len(t.vs) {
		t.vs = make([]dfsVert, n)
	} else if verts == nil {
		clear(t.vs[:n])
	}
	for _, v := range verts {
		t.vs[v] = dfsVert{}
	}
	vs := t.vs[:n]
	offsets, neighbors := g.offsets, g.neighbors
	estack := t.estack[:0]
	var counter, stamp int32

	inMask := func(v int32) bool { return mask == nil || mask[v] }

	// popBlock pops the edges down to and including (u,v) off the edge
	// stack and emits them as one block. The seen stamps dedup the block's
	// vertices with a flat-array probe instead of a map.
	popBlock := func(u, v int32) bool {
		i := len(estack) - 1
		for i > 0 && estack[i] != (blockEdge{u, v}) {
			i--
		}
		i = max(i, 0)
		seg := estack[i:]
		estack = estack[:i]
		stamp++
		verts := t.blkVerts[:0]
		if most := min(len(seg)+1, n); cap(verts) < most {
			verts = make([]int, 0, most)
		}
		for j := len(seg) - 1; j >= 0; j-- {
			e := seg[j]
			if vs[e.u].seen != stamp {
				vs[e.u].seen = stamp
				verts = append(verts, int(e.u))
			}
			if vs[e.v].seen != stamp {
				vs[e.v].seen = stamp
				verts = append(verts, int(e.v))
			}
		}
		t.blkVerts = verts
		return sink(seg, verts)
	}

	stack := t.stack
	defer func() {
		t.estack = estack[:0]
		t.stack = stack[:0]
	}()
	roots := len(verts)
	if verts == nil {
		roots = n
	}
	for r := range roots {
		root := int32(r)
		if verts != nil {
			root = verts[r]
		}
		if !inMask(root) || vs[root].num != 0 {
			continue
		}
		counter++
		vs[root] = dfsVert{num: counter, low: counter, parent: -1}
		stack = append(stack[:0], root)
		rootChildren := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			pv := &vs[v]
			advanced := false
			nbrs := neighbors[offsets[v]:offsets[v+1]]
			for int(pv.iter) < len(nbrs) {
				w := nbrs[pv.iter]
				pv.iter++
				if !inMask(w) {
					continue
				}
				pw := &vs[w]
				if pw.num == 0 {
					estack = push(estack, blockEdge{v, w})
					counter++
					*pw = dfsVert{num: counter, low: counter, parent: v}
					stack = push(stack, w)
					if v == root {
						rootChildren++
					}
					advanced = true
					break
				}
				if w != pv.parent && pw.num < pv.num {
					// back edge
					estack = push(estack, blockEdge{v, w})
					if pw.num < pv.low {
						pv.low = pw.num
					}
				}
			}
			if advanced {
				continue
			}
			// Retreat from v.
			stack = stack[:len(stack)-1]
			if p := pv.parent; p != -1 {
				pp := &vs[p]
				if pv.low < pp.low {
					pp.low = pv.low
				}
				if pv.low >= pp.num {
					// p separates v's subtree: one block ends here.
					if p != root || rootChildren >= 1 {
						if !popBlock(p, v) {
							return
						}
					}
					if p != root && markCut != nil {
						markCut(int(p))
					}
				}
			}
		}
		if rootChildren >= 2 && markCut != nil {
			markCut(int(root))
		}
	}
}

// Blocks computes the biconnected components of the masked graph (nil mask =
// all vertices) with an iterative Hopcroft–Tarjan DFS (no recursion, safe for
// path graphs of any length). It runs on a fresh Traversal's DFS records;
// a caller decomposing many graphs holds a Traversal and calls its Blocks.
func (g *Graph) Blocks(mask []bool) *BlockDecomposition {
	return (&Traversal{g: g}).Blocks(mask)
}

// Blocks is Graph.Blocks on t's graph, reusing t's DFS records.
func (t *Traversal) Blocks(mask []bool) *BlockDecomposition {
	n := t.g.N()
	dec := &BlockDecomposition{
		IsCut:    make([]bool, n),
		BlocksOf: make([][]int, n),
	}
	members := 0
	t.blocksDFS(nil, mask, func(seg []blockEdge, verts []int) bool {
		edges := make([][2]int, len(seg))
		for j, e := range seg {
			edges[len(seg)-1-j] = [2]int{int(e.u), int(e.v)}
		}
		dec.Blocks = append(dec.Blocks, Block{
			Edges:    edges,
			Vertices: append([]int(nil), verts...),
		})
		members += len(verts)
		return true
	}, func(v int) { dec.IsCut[v] = true })
	// BlocksOf on one backing array: count each vertex's blocks, hand out
	// capped sub-slices, then fill them in block order.
	count := make([]int32, n)
	for i := range dec.Blocks {
		for _, w := range dec.Blocks[i].Vertices {
			count[w]++
		}
	}
	flat := make([]int, members)
	off := 0
	for w, c := range count {
		if c > 0 {
			dec.BlocksOf[w] = flat[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i := range dec.Blocks {
		for _, w := range dec.Blocks[i].Vertices {
			dec.BlocksOf[w] = append(dec.BlocksOf[w], i)
		}
	}
	return dec
}

// gallaiBlock reports whether a block with k vertices and m edges is a
// clique (a bridge is a K2) or an odd cycle: an allowed Gallai-tree block.
// A block with ≥3 vertices is 2-connected, so its minimum degree is ≥ 2,
// and m = k forces 2-regularity, i.e. a cycle. K3 is both.
func gallaiBlock(k, m int) bool {
	return m == k*(k-1)/2 || (k >= 3 && k%2 == 1 && m == k)
}

// IsGallaiForest reports whether every component of G[verts] is a Gallai
// tree (every block a clique or an odd cycle; edgeless graphs qualify),
// with mask true exactly on verts, or nil for both to test all of g. It
// walks only verts, streams blocks out of the DFS and stops at the first
// bad one. bad is that block's vertex count (0 for a Gallai forest), so a
// connected G[verts] is one bad block exactly when bad == len(verts), in
// any walk order. It runs on a fresh Traversal's DFS records.
func (g *Graph) IsGallaiForest(verts []int32, mask []bool) (ok bool, bad int) {
	return (&Traversal{g: g}).IsGallaiForest(verts, mask)
}

// IsGallaiForest is Graph.IsGallaiForest on t's graph, reusing t's DFS
// records, so a warm call allocates nothing: the happy-set classification
// calls it per component and per ball.
func (t *Traversal) IsGallaiForest(verts []int32, mask []bool) (ok bool, bad int) {
	t.blocksDFS(verts, mask, func(seg []blockEdge, blk []int) bool {
		if !gallaiBlock(len(blk), len(seg)) {
			bad = len(blk)
		}
		return bad == 0
	}, nil)
	return bad == 0, bad
}

// FirstBadBlock returns the index of some block that is neither a clique nor
// an odd cycle, or -1 if the masked graph is a Gallai forest.
func FirstBadBlock(dec *BlockDecomposition) int {
	for i := range dec.Blocks {
		if b := &dec.Blocks[i]; !gallaiBlock(len(b.Vertices), len(b.Edges)) {
			return i
		}
	}
	return -1
}

// BlockTree returns, for a connected masked graph, an adjacency structure
// over blocks: blockAdj[i] lists blocks sharing a cut vertex with block i,
// and sharedCut[i][j-th entry] is that cut vertex. Used to peel blocks in
// reverse order toward a chosen root block.
type BlockTree struct {
	Dec *BlockDecomposition
	// Adj[i] lists neighboring block indices of block i in the block-cut
	// tree (blocks sharing a cut vertex).
	Adj [][]int
	// Via[i][k] is the cut vertex shared between block i and Adj[i][k].
	Via [][]int
}

// NewBlockTree builds the block adjacency from a decomposition.
func NewBlockTree(dec *BlockDecomposition) *BlockTree {
	t := &BlockTree{
		Dec: dec,
		Adj: make([][]int, len(dec.Blocks)),
		Via: make([][]int, len(dec.Blocks)),
	}
	for v, blocks := range dec.BlocksOf {
		if len(blocks) < 2 {
			continue
		}
		for i := 0; i < len(blocks); i++ {
			for j := 0; j < len(blocks); j++ {
				if i == j {
					continue
				}
				t.Adj[blocks[i]] = append(t.Adj[blocks[i]], blocks[j])
				t.Via[blocks[i]] = append(t.Via[blocks[i]], v)
			}
		}
	}
	return t
}

// PeelOrder returns the blocks of the component containing root in an order
// such that processing them in *reverse* visits every non-root block after
// all blocks farther from root, together with, for each block, the cut
// vertex leading toward the root block (-1 for the root block itself).
// Blocks of other components are not returned.
func (t *BlockTree) PeelOrder(root int) (order []int, towardRoot []int) {
	n := len(t.Dec.Blocks)
	seen := make([]bool, n)
	toward := make([]int, n)
	for i := range toward {
		toward[i] = -1
	}
	queue := []int{root}
	seen[root] = true
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		order = append(order, b)
		for k, nb := range t.Adj[b] {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			toward[nb] = t.Via[b][k]
			queue = append(queue, nb)
		}
	}
	tw := make([]int, len(order))
	for i, b := range order {
		tw[i] = toward[b]
	}
	return order, tw
}
