// Package gps implements the Goldberg–Plotkin–Shannon peeling strategy
// (SIAM J. Discrete Math. 1988): repeatedly remove all vertices of degree
// ≤ k (one layer per round), then color the layers from last to first with
// the palette {0..k}. Whenever every nonempty subgraph keeps a constant
// fraction of degree-≤k vertices (planar graphs with k=6 keep ≥ n/7), the
// number of layers is O(log n). Coloring each layer needs within-layer
// symmetry breaking, done with Linial's reduction in O(log* n) + O(k²)
// rounds per layer.
//
// Planar7 is the paper's 7-color baseline for planar graphs (Section 1.1).
package gps

import (
	"context"
	"fmt"

	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
)

// Result carries a peeling-based coloring along with its layer structure.
type Result struct {
	Colors []int // color per vertex in [0, k]
	Layers int   // number of peeling layers
}

// PeelColor colors the graph with k+1 colors ({0..k}) provided peeling
// degree-≤k vertices exhausts the graph (true iff degeneracy(G) ≤ k). It
// errors out otherwise. Rounds charged: one per peeling layer, plus the
// within-layer scheduling cost. Cancellation is cooperative, checked once
// per peeling layer and once per layer-coloring pass.
func PeelColor(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string, k int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	if k < 0 {
		return nil, fmt.Errorf("gps: negative k")
	}
	layerOf := make([]int, n)
	for v := range layerOf {
		layerOf[v] = -1
	}
	alive := make([]bool, n)
	aliveCount := n
	for v := range alive {
		alive[v] = true
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	// aliveList holds the surviving vertices in ascending order; each layer
	// partitions it stably into peeled and survivors, so a layer only scans
	// the vertices still alive (not all n) and the peel order matches the
	// full ascending scan exactly.
	aliveList := make([]int, n)
	for v := range aliveList {
		aliveList[v] = v
	}
	var peel []int
	layers := 0
	for len(aliveList) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		layers++
		peel = peel[:0]
		survivors := aliveList[:0]
		for _, v := range aliveList {
			if deg[v] <= k {
				peel = append(peel, v)
			} else {
				survivors = append(survivors, v)
			}
		}
		if len(peel) == 0 {
			return nil, fmt.Errorf("gps: peeling stalled with %d vertices alive (degeneracy > %d)", aliveCount, k)
		}
		aliveList = survivors
		for _, v := range peel {
			layerOf[v] = layers
			alive[v] = false
			aliveCount--
		}
		for _, v := range peel {
			for _, w32 := range g.Neighbors(v) {
				if alive[w32] {
					deg[w32]--
				}
			}
		}
		if ledger != nil {
			ledger.Charge(phase+"/peel", 1)
		}
	}

	// Color layers from last to first. Layer membership is bucketized once
	// (ascending vertex order, as the per-layer full scans produced), and
	// the per-vertex forbidden set {0..k} is a pooled bitset whose FirstZero
	// is exactly the old "first unused index" scan.
	colors := make([]int, n)
	for v := range colors {
		colors[v] = reduce.Uncolored
	}
	layerVerts := make([][]int, layers+1)
	for v := 0; v < n; v++ {
		layerVerts[layerOf[v]] = append(layerVerts[layerOf[v]], v)
	}
	used := graph.AcquireBitset(k + 1)
	defer graph.ReleaseBitset(used)
	for l := layers; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lv := layerVerts[l]
		// Within-layer schedule: Linial classes on the layer-induced graph.
		classes, palette := reduce.LinialColor(nw, ledger, phase+"/linial", lv)
		buckets := make([][]int, palette)
		for i, v := range lv {
			buckets[classes[i]] = append(buckets[classes[i]], v)
		}
		for c := 0; c < palette; c++ {
			for _, v := range buckets[c] {
				// v has ≤ k neighbors in its own or later layers, all the
				// already-colored ones; pick a free color among {0..k}.
				used.Reset(k + 1)
				for _, w32 := range g.Neighbors(v) {
					w := int(w32)
					if colors[w] >= 0 && colors[w] <= k {
						used.Set(colors[w])
					}
				}
				picked := used.FirstZero()
				if picked > k {
					return nil, fmt.Errorf("gps: no free color at %d (layer %d)", v, l)
				}
				colors[v] = picked
			}
			if len(buckets[c]) > 0 && ledger != nil {
				ledger.Charge(phase+"/recolor", 1)
			}
		}
	}
	return &Result{Colors: colors, Layers: layers}, nil
}

// Planar7 is the GPS 7-coloring baseline for planar graphs: PeelColor with
// k=6 (planar graphs always keep ≥ n/7 vertices of degree ≤ 6, so the layer
// count is O(log n)).
func Planar7(ctx context.Context, nw *local.Network, ledger *local.Ledger) (*Result, error) {
	return PeelColor(ctx, nw, ledger, "gps7", 6)
}
