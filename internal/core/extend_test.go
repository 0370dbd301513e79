package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// TestExtendColorsOnlyAliveVertices drives happySet and extend layer by
// layer, as peelAndExtend does, and checks after every extension that each
// colored vertex is alive. extend's neighbor scans count every colored
// neighbor with no alive mask; this invariant is what makes that exact.
func TestExtendColorsOnlyAliveVertices(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 9))
	regular, err := gen.RandomRegular(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"apollonian", gen.Apollonian(300, rng), 6},
		{"regular3", regular, 3},
		{"grid", gen.Grid(12, 12), 3},
	}
	for _, tc := range cases {
		for _, c := range []float64{DefaultBallC, 0.3} {
			g, d, n := tc.g, tc.d, tc.g.N()
			radius := max(1, int(math.Ceil(c*math.Log2(float64(n)))))
			richTest := func(deg, _ int) bool { return deg <= d }
			witness := func(deg, _ int) bool { return deg <= d-1 }
			alive := make([]bool, n)
			for v := range alive {
				alive[v] = true
			}
			var rich, happy [][]int
			for left := n; left > 0; {
				_, r, h := happySet(g, alive, radius, richTest, witness)
				if len(h) == 0 {
					t.Fatalf("%s c=%.2f: peeling stalled with %d alive", tc.name, c, left)
				}
				rich, happy = append(rich, r), append(happy, h)
				for _, v := range h {
					alive[v] = false
				}
				left -= len(h)
			}
			nw := local.NewNetwork(g)
			ledger := &local.Ledger{}
			lists := randomLists(n, d, 2*d+2, rng)
			colors := make([]int, n)
			for v := range colors {
				colors[v] = Uncolored
			}
			for i := len(happy) - 1; i >= 0; i-- {
				for _, v := range happy[i] {
					alive[v] = true
				}
				if _, err := extend(context.Background(), nw, ledger, rich[i], happy[i], colors, lists, radius); err != nil {
					t.Fatalf("%s c=%.2f layer %d: %v", tc.name, c, i+1, err)
				}
				for v, col := range colors {
					if col != Uncolored && !alive[v] {
						t.Fatalf("%s c=%.2f layer %d: vertex %d colored %d but not alive", tc.name, c, i+1, v, col)
					}
				}
			}
			if err := seqcolor.Verify(g, colors, lists); err != nil {
				t.Fatalf("%s c=%.2f: %v", tc.name, c, err)
			}
		}
	}
}
