package graph

// IsGallaiForestMask is the mask-only Gallai test that IsGallaiForest
// replaced: a walk from every masked vertex in ascending order, over all n
// records cleared. It is the oracle for the list-scoped walk.
func (g *Graph) IsGallaiForestMask(mask []bool) (ok bool, bad int) {
	(&Traversal{g: g}).blocksDFS(nil, mask, func(seg []blockEdge, blk []int) bool {
		if gallaiBlock(len(blk), len(seg)) {
			return true
		}
		bad = len(blk)
		return false
	}, nil)
	return bad == 0, bad
}

// gallai reports whether the whole graph is a Gallai forest.
func gallai(g *Graph) bool {
	ok, _ := g.IsGallaiForest(nil, nil)
	return ok
}

// gallaiIn reports whether the masked graph is a Gallai forest, through
// the list form.
func gallaiIn(g *Graph, mask []bool) bool {
	var verts []int32
	for v, in := range mask {
		if in {
			verts = append(verts, int32(v))
		}
	}
	ok, _ := g.IsGallaiForest(verts, mask)
	return ok
}

// RefWriteTo is refWriteTo, for the external tests on generated graphs.
var RefWriteTo = refWriteTo
