// planar6 compares the paper's 6-coloring (Corollary 2.3(1)) against the
// Goldberg–Plotkin–Shannon 7-coloring baseline across planar families and
// sizes: the paper trades a polylog round factor for one color.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"distcolor"
	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

func main() {
	rng := rand.New(rand.NewPCG(2024, 5))
	fmt.Println("planar 6-coloring (paper, guarantee 6) vs GPS (guarantee 7)")
	fmt.Println()
	fmt.Printf("%-26s %6s | %7s %10s | %7s %10s | %8s\n",
		"family", "n", "GPS col", "GPS rnds", "our col", "our rnds", "rnds/log³n")

	type family struct {
		name string
		make func(n int) *graph.Graph
	}
	families := []family{
		{"apollonian triangulation", func(n int) *graph.Graph { return gen.Apollonian(n, rng) }},
		{"square grid", func(n int) *graph.Graph {
			side := int(math.Sqrt(float64(n)))
			return gen.Grid(side, side)
		}},
		{"subdivided triangulation", func(n int) *graph.Graph {
			return gen.Subdivide(gen.Apollonian(n/4, rng), 1)
		}},
	}
	for _, fam := range families {
		for _, n := range []int{500, 2000} {
			g := fam.make(n)
			gpsCol, err := distcolor.Run(context.Background(), g, "gps7", distcolor.WithSeed(3))
			if err != nil {
				log.Fatal(err)
			}
			ourCol, err := distcolor.Run(context.Background(), g, "planar6", distcolor.WithSeed(3))
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range []*distcolor.Coloring{gpsCol, ourCol} {
				if err := distcolor.Verify(g, c.Colors, nil); err != nil {
					log.Fatal(err)
				}
			}
			l := math.Log2(float64(g.N()))
			fmt.Printf("%-26s %6d | %7d %10d | %7d %10d | %8.1f\n",
				fam.name, g.N(),
				distcolor.NumColors(gpsCol.Colors), gpsCol.Rounds,
				distcolor.NumColors(ourCol.Colors), ourCol.Rounds,
				float64(ourCol.Rounds)/(l*l*l))
		}
	}
	fmt.Println()
	fmt.Println("Shape check (the paper's Theorem 1.3 / Corollary 2.3): our rounds grow")
	fmt.Println("like O(log³ n) — the rightmost column stays roughly flat — while GPS")
	fmt.Println("grows like O(log n · log* n). GPS can never guarantee fewer than 7")
	fmt.Println("colors; the paper guarantees 6, and 5 remains open (Question 2.8).")
}
