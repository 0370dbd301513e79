package graph_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// refBlocksDFS is the five-array Hopcroft–Tarjan walk that blocksDFS used
// before its per-vertex state was packed into one record: num, low, parent,
// iter and seenIn as separate []int, the edge stack as int pairs. It is the
// oracle for the traversal order, which decides block order, each block's
// vertex and edge order, FirstBadBlock and hence the Theorem 1.1 peel order.
func refBlocksDFS(g *graph.Graph, mask []bool, sink func(edges [][2]int, verts []int) bool, markCut func(int)) {
	n := g.N()
	num := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	iter := make([]int, n)
	seenIn := make([]int, n)
	type edge struct{ u, v int }
	var estack []edge
	var blkEdges [][2]int
	var blkVerts []int
	counter, blockStamp := 0, 0
	inMask := func(v int) bool { return mask == nil || mask[v] }
	popBlock := func(u, v int) bool {
		blkEdges = blkEdges[:0]
		blkVerts = blkVerts[:0]
		blockStamp++
		addVert := func(w int) {
			if seenIn[w] != blockStamp {
				seenIn[w] = blockStamp
				blkVerts = append(blkVerts, w)
			}
		}
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			blkEdges = append(blkEdges, [2]int{e.u, e.v})
			addVert(e.u)
			addVert(e.v)
			if e.u == u && e.v == v {
				break
			}
		}
		return sink(blkEdges, blkVerts)
	}
	var stack []int
	for root := 0; root < n; root++ {
		if num[root] != 0 || !inMask(root) {
			continue
		}
		counter++
		num[root], low[root], parent[root], iter[root] = counter, counter, -1, 0
		stack = append(stack[:0], root)
		rootChildren := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			nbrs := g.Neighbors(v)
			for iter[v] < len(nbrs) {
				w := int(nbrs[iter[v]])
				iter[v]++
				if !inMask(w) {
					continue
				}
				if num[w] == 0 {
					estack = append(estack, edge{v, w})
					parent[w] = v
					counter++
					num[w], low[w], iter[w] = counter, counter, 0
					stack = append(stack, w)
					if v == root {
						rootChildren++
					}
					advanced = true
					break
				}
				if w != parent[v] && num[w] < num[v] {
					estack = append(estack, edge{v, w})
					if num[w] < low[v] {
						low[v] = num[w]
					}
				}
			}
			if advanced {
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= num[p] {
					if p != root || rootChildren >= 1 {
						if !popBlock(p, v) {
							return
						}
					}
					if p != root && markCut != nil {
						markCut(p)
					}
				}
			}
		}
		if rootChildren >= 2 && markCut != nil {
			markCut(root)
		}
	}
}

func refBlocks(g *graph.Graph, mask []bool) *graph.BlockDecomposition {
	n := g.N()
	dec := &graph.BlockDecomposition{IsCut: make([]bool, n), BlocksOf: make([][]int, n)}
	refBlocksDFS(g, mask, func(edges [][2]int, verts []int) bool {
		idx := len(dec.Blocks)
		dec.Blocks = append(dec.Blocks, graph.Block{
			Edges:    append([][2]int(nil), edges...),
			Vertices: append([]int(nil), verts...),
		})
		for _, w := range verts {
			dec.BlocksOf[w] = append(dec.BlocksOf[w], idx)
		}
		return true
	}, func(v int) { dec.IsCut[v] = true })
	return dec
}

// refIsGallaiForest reports whether the masked graph is a Gallai forest
// and the vertex count of the first bad block in the reference walk.
func refIsGallaiForest(g *graph.Graph, mask []bool) (ok bool, bad int) {
	refBlocksDFS(g, mask, func(edges [][2]int, verts []int) bool {
		k := len(verts)
		if len(edges) == k*(k-1)/2 || (k >= 3 && k%2 == 1 && len(edges) == k) {
			return true
		}
		bad = k
		return false
	}, nil)
	return bad == 0, bad
}

// maskList lists the masked vertices ascending (nil for a nil mask).
func maskList(mask []bool) []int32 {
	if mask == nil {
		return nil
	}
	verts := []int32{}
	for v, in := range mask {
		if in {
			verts = append(verts, int32(v))
		}
	}
	return verts
}

// checkBlocksMatchRef asserts that Blocks and IsGallaiForest agree with the
// reference walk in every order the callers can observe.
func checkBlocksMatchRef(t *testing.T, name string, g *graph.Graph, mask []bool) {
	t.Helper()
	got, want := g.Blocks(mask), refBlocks(g, mask)
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d blocks, reference %d", name, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		if !reflect.DeepEqual(got.Blocks[i].Vertices, want.Blocks[i].Vertices) {
			t.Fatalf("%s: block %d vertices %v, reference %v", name, i, got.Blocks[i].Vertices, want.Blocks[i].Vertices)
		}
		if !reflect.DeepEqual(got.Blocks[i].Edges, want.Blocks[i].Edges) {
			t.Fatalf("%s: block %d edges %v, reference %v", name, i, got.Blocks[i].Edges, want.Blocks[i].Edges)
		}
	}
	if !reflect.DeepEqual(got.IsCut, want.IsCut) {
		t.Fatalf("%s: IsCut differs from reference", name)
	}
	for v := range want.BlocksOf {
		if !reflect.DeepEqual(got.BlocksOf[v], want.BlocksOf[v]) {
			t.Fatalf("%s: BlocksOf[%d] = %v, reference %v", name, v, got.BlocksOf[v], want.BlocksOf[v])
		}
	}
	if gotFB, wantFB := graph.FirstBadBlock(got), graph.FirstBadBlock(want); gotFB != wantFB {
		t.Fatalf("%s: FirstBadBlock %d, reference %d", name, gotFB, wantFB)
	}
	gotG, gotBad := g.IsGallaiForest(maskList(mask), mask)
	if wantG, wantBad := refIsGallaiForest(g, mask); gotG != wantG || gotBad != wantBad {
		t.Fatalf("%s: IsGallaiForest %v (bad block of %d), reference %v (%d)", name, gotG, gotBad, wantG, wantBad)
	}
}

func randomMask(n int, keep float64, rng *rand.Rand) []bool {
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = rng.Float64() < keep
	}
	return mask
}

func TestBlocksMatchReferenceDFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(120)
		var g *graph.Graph
		switch trial % 5 {
		case 0:
			g = gen.GNP(n, 1.5/float64(n), rng)
		case 1:
			g = gen.GNP(n, 4/float64(n), rng)
		case 2:
			g = gen.GallaiTree(1+rng.IntN(12), rng)
		case 3:
			g = gen.WithPendantCliques(gen.Cycle(3+rng.IntN(20)), 2+rng.IntN(3))
		default:
			g = gen.Apollonian(3+n, rng)
		}
		name := fmt.Sprintf("trial %d (n=%d)", trial, g.N())
		checkBlocksMatchRef(t, name+" nil mask", g, nil)
		for _, keep := range []float64{0.5, 0.8, 0.95} {
			checkBlocksMatchRef(t, fmt.Sprintf("%s mask %.2f", name, keep), g, randomMask(g.N(), keep, rng))
		}
	}
}

func TestBlocksMatchReferenceDFSRegular100k(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1e5 differential run")
	}
	rng := rand.New(rand.NewPCG(100000, 3))
	g, err := gen.RandomRegular(100000, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkBlocksMatchRef(t, "regular:100000,3", g, nil)
	checkBlocksMatchRef(t, "regular:100000,3 masked", g, randomMask(g.N(), 0.9, rng))
}

// TestGallaiListMatchesMaskForm runs the list-scoped Gallai test on many
// random vertex lists of one graph in a row, so each walk reuses the
// pooled records the walks before it left behind, and compares it with the
// mask-only form, which clears all n records. Ascending lists walk in the
// mask form's order, so the bad block found must match too; shuffled lists
// must agree on the verdict and on whether the first bad block spans a
// connected list. A stale record left by a list-scoped clear that misses a
// listed vertex makes the walk skip or misjudge it.
func TestGallaiListMatchesMaskForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	regular, err := gen.RandomRegular(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*graph.Graph{
		gen.Apollonian(300, rng),
		regular,
		gen.GNP(200, 4.0/200, rng),
		gen.WithPendantCliques(gen.CyclePower(40, 2), 3),
		gen.GallaiTree(30, rng),
		gen.Grid(15, 15),
	}
	for hi, g := range hosts {
		tr := g.AcquireTraversal()
		for trial := range 200 {
			var mask []bool
			var verts []int32
			if trial%2 == 0 {
				// A connected ball, the happy-set classification's input.
				tr.Run([]int{rng.IntN(g.N())}, nil, 1+rng.IntN(6))
				mask = make([]bool, g.N())
				for _, v := range tr.Order() {
					mask[v] = true
				}
				verts = maskList(mask)
			} else {
				mask = randomMask(g.N(), 0.3+0.7*rng.Float64(), rng)
				verts = maskList(mask)
			}
			name := fmt.Sprintf("host %d trial %d (%d vertices)", hi, trial, len(verts))
			wantOK, wantBad := g.IsGallaiForestMask(mask)
			gotOK, gotBad := g.IsGallaiForest(verts, mask)
			if gotOK != wantOK || gotBad != wantBad {
				t.Fatalf("%s ascending: (%v, %d), mask form (%v, %d)", name, gotOK, gotBad, wantOK, wantBad)
			}
			rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
			gotOK, gotBad = g.IsGallaiForest(verts, mask)
			if gotOK != wantOK {
				t.Fatalf("%s shuffled: Gallai %v, mask form %v", name, gotOK, wantOK)
			}
			if trial%2 == 0 && (gotBad == len(verts)) != (wantBad == len(verts)) {
				t.Fatalf("%s shuffled: bad block of %d, mask form %d", name, gotBad, wantBad)
			}
		}
		g.ReleaseTraversal(tr)
	}
}
