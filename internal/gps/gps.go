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
//
// The layers are runs of one flat peel order, each ascending, and each
// layer's Linial classes are counting-sorted into one buffer sized to the
// largest layer, so a call allocates its vertex-sized buffers once, at
// their final size, and one reduce.Workspace schedules every layer.
package gps

import (
	"context"
	"fmt"
	"math/bits"

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
// per peeling layer and once per layer-coloring pass. The vertex-sized
// buffers are allocated once per call at their final size, and one Linial
// workspace serves every layer.
func PeelColor(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string, k int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
	n := g.N()
	if k < 0 {
		return nil, fmt.Errorf("gps: negative k")
	}
	peelPhase, linialPhase, recolorPhase := phase+"/peel", phase+"/linial", phase+"/recolor"
	// layerOf[v] is v's 1-based peeling layer, 0 while v is alive; deg[v] is
	// v's alive-degree while v is alive.
	layerOf := make([]int32, n)
	deg := make([]int32, n)
	// alive holds the surviving vertices in ascending order; each layer
	// partitions it stably, in place, into the peeled vertices (appended to
	// order) and the survivors, so a layer only scans the vertices still
	// alive and each layer's run of order is ascending. Layer l is
	// order[start[l-1]:start[l]].
	alive := make([]int32, n)
	for v := range n {
		deg[v] = int32(g.Degree(v))
		alive[v] = int32(v)
	}
	order := make([]int, 0, n)
	start := []int{0}
	for len(alive) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first := len(order)
		survivors := alive[:0]
		for _, v := range alive {
			if int(deg[v]) <= k {
				order = append(order, int(v))
			} else {
				survivors = append(survivors, v)
			}
		}
		peel := order[first:]
		if len(peel) == 0 {
			return nil, fmt.Errorf("gps: peeling stalled with %d vertices alive (degeneracy > %d)", len(alive), k)
		}
		alive = survivors
		layer := int32(len(start))
		for _, v := range peel {
			layerOf[v] = layer
		}
		for _, v := range peel {
			for _, w := range g.Neighbors(v) {
				if layerOf[w] == 0 {
					deg[w]--
				}
			}
		}
		start = append(start, len(order))
		if ledger != nil {
			ledger.Charge(peelPhase, 1)
		}
	}
	layers := len(start) - 1

	// Color layers from last to first. Each layer's Linial classes are
	// counting-sorted into byClass (sized to the largest layer), ascending
	// vertex order within a class, and each vertex takes the first color
	// of {0..k} that no colored neighbor has.
	colors := make([]int, n)
	for v := range colors {
		colors[v] = reduce.Uncolored
	}
	largest := 0
	for l := 1; l <= layers; l++ {
		largest = max(largest, start[l]-start[l-1])
	}
	byClass := make([]int32, largest)
	var next []int32 // next[c]: where class c's next vertex goes in byClass
	var ws reduce.Workspace
	var used graph.Bitset
	for l := layers; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lv := order[start[l-1]:start[l]]
		// Within-layer schedule: Linial classes on the layer-induced graph.
		classes, palette := ws.LinialColor(nw, ledger, linialPhase, lv)
		if palette+1 > len(next) {
			next = make([]int32, palette+1)
		}
		clear(next[:palette+1])
		for _, c := range classes {
			next[c+1]++
		}
		for c := range palette {
			next[c+1] += next[c]
		}
		for i, c := range classes {
			byClass[next[c]] = int32(lv[i])
			next[c]++
		}
		// next[c] is now where class c ends, and so where class c+1 starts.
		lo := int32(0)
		for c := range palette {
			class := byClass[lo:next[c]]
			lo = next[c]
			for _, v := range class {
				// v has ≤ k neighbors in its own or later layers, all the
				// already-colored ones; pick a free color among {0..k}.
				// Colors below 64 are marked in a local word, whose
				// lowest clear bit it is unless all 64 are taken, and only
				// a palette wider than 64 marks the rest in used. A color
				// above k in the word is never the lowest clear bit while
				// one of 0..k is free, so it needs no test.
				if k >= 64 {
					used.Reset(k + 1)
				}
				var word uint64
				for _, w := range g.Neighbors(int(v)) {
					cw := colors[w]
					word |= 1 << uint(cw) // 0 for Uncolored and for colors of 64 or more
					if cw >= 64 && cw <= k {
						used.Set(cw)
					}
				}
				picked := bits.TrailingZeros64(^word)
				if picked == 64 {
					for picked <= k && used.Test(picked) {
						picked++
					}
				}
				if picked > k {
					return nil, fmt.Errorf("gps: no free color at %d (layer %d)", v, l)
				}
				colors[v] = picked
			}
			if len(class) > 0 && ledger != nil {
				ledger.Charge(recolorPhase, 1)
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
