package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// TestHappyClassificationMatchesMessagePassing cross-validates the
// centralized happySet against a genuinely distributed implementation:
// every node floods for radius+2 rounds (collecting the induced
// radius-(r+1) ball, enough to know deg_G of every ball member), then
// locally decides rich/happy exactly as the paper defines it. The two
// classifications must agree vertex by vertex.
func TestHappyClassificationMatchesMessagePassing(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"cycle", gen.Cycle(18), 3},
		{"grid", gen.Grid(5, 6), 4},
		{"apollonian", gen.Apollonian(40, rng), 6},
		{"3regular", mustRegular(t, 30, 3, rng), 3},
		{"pendant-k3", gen.WithPendantCliques(gen.Path(12), 3), 3},
	}
	for _, tc := range cases {
		for _, radius := range []int{1, 2, 3} {
			nw := local.NewShuffledNetwork(tc.g, rng)
			// centralized
			richTest := func(degAlive int, v int) bool { return degAlive <= tc.d }
			witness := func(degAlive int, v int) bool { return degAlive <= tc.d-1 }
			_, lay := happySet(newPeelState(tc.g), radius, richTest, witness)
			wantRich := toSet(lay.rich)
			wantHappy := toSet(lay.happy)

			// distributed: flood radius+1 balls, decide locally
			balls, err := local.CollectBallsSync(context.Background(), nw, nil, "flood", radius+1)
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, radius, err)
			}
			idOf := nw.ID
			for v := 0; v < tc.g.N(); v++ {
				bg, ids := local.BallToGraph(balls[v])
				// index of own ID
				self := -1
				for i, id := range ids {
					if id == idOf[v] {
						self = i
					}
				}
				if self < 0 {
					t.Fatalf("%s: own id missing from ball", tc.name)
				}
				// distances from self inside the collected ball
				res := bg.BFS([]int{self}, nil, -1)
				// rich: true G-degree visible for all members within radius
				isRich := func(i int) bool {
					if res.Dist[i] > radius {
						return false // degree possibly truncated; not needed
					}
					return bg.Degree(i) <= tc.d
				}
				gotRich := isRich(self)
				if gotRich != wantRich[v] {
					t.Fatalf("%s r=%d v=%d: rich mismatch (sync=%v central=%v)",
						tc.name, radius, v, gotRich, wantRich[v])
				}
				if !gotRich {
					continue
				}
				// rich-subgraph ball of radius `radius` around self
				richMask := make([]bool, bg.N())
				for i := 0; i < bg.N(); i++ {
					if res.Dist[i] <= radius && bg.Degree(i) <= tc.d {
						richMask[i] = true
					}
				}
				rres := bg.BFS([]int{self}, richMask, radius)
				members := rres.Order
				// witness: some member with degree ≤ d−1
				gotHappy := false
				ballMask := make([]bool, bg.N())
				var ball []int32
				for _, u := range members {
					ballMask[u] = true
					ball = append(ball, int32(u))
					if bg.Degree(u) <= tc.d-1 {
						gotHappy = true
					}
				}
				if gallai, _ := bg.IsGallaiForest(ball, ballMask); !gotHappy && !gallai {
					gotHappy = true
				}
				if gotHappy != wantHappy[v] {
					t.Fatalf("%s r=%d v=%d: happy mismatch (sync=%v central=%v)",
						tc.name, radius, v, gotHappy, wantHappy[v])
				}
			}
		}
	}
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func mustRegular(t *testing.T, n, d int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	g, err := gen.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
