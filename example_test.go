package distcolor_test

// Runnable godoc examples for the headline entry points. Each builds a
// small graph satisfying the theorem's hypotheses, runs the distributed
// algorithm, and checks the coloring with Verify — exactly the workflow the
// README quickstart shows.

import (
	"context"
	"fmt"
	"time"

	"distcolor"
)

// petersen returns the Petersen graph: 3-regular, K₄-free, mad(G) = 3 — the
// smallest interesting input for Theorem 1.3 with d = 3.
func petersen() *distcolor.Graph {
	edges := [][2]int{
		// outer 5-cycle, inner pentagram, and the five spokes
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	}
	g, err := distcolor.NewGraph(10, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// ExampleRun_sparse colors the Petersen graph with 3 colors via Theorem
// 1.3 (d-list-coloring for mad(G) ≤ d) and verifies the result.
func ExampleRun_sparse() {
	g := petersen()
	col, err := distcolor.Run(context.Background(), g, "sparse", distcolor.WithD(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", distcolor.Verify(g, col.Colors, nil) == nil)
	fmt.Println("colors ≤ 3:", distcolor.NumColors(col.Colors) <= 3)
	// Output:
	// verified: true
	// colors ≤ 3: true
}

// ExampleRun is the registry-driven entry point: pick an algorithm by wire
// name, tune it with functional options, watch live phase progress, and
// bound the run with a context.
func ExampleRun() {
	g := petersen()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	events := 0
	col, err := distcolor.Run(ctx, g, "sparse",
		distcolor.WithD(3),    // Theorem 1.3 parameter d
		distcolor.WithSeed(7), // adversarial ID shuffle
		distcolor.WithProgress(func(e distcolor.PhaseEvent) { events++ }))
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", col.Algorithm)
	// With no caller lists col.Lists is nil, so Verify checks properness;
	// Run has already checked the palette [0, 3).
	fmt.Println("verified:", distcolor.Verify(g, col.Colors, col.Lists) == nil)
	fmt.Println("colors ≤ 3:", distcolor.NumColors(col.Colors) <= 3)
	fmt.Println("saw progress:", events > 0)
	// Output:
	// algorithm: sparse
	// verified: true
	// colors ≤ 3: true
	// saw progress: true
}

// ExampleAlgorithms walks the registry — the single source of truth shared
// by the public API, the CLI and the HTTP server.
func ExampleAlgorithms() {
	for _, a := range distcolor.Algorithms() {
		if a.Theorem == "Theorem 1.3" {
			fmt.Println(a.Name, "—", a.Theorem)
		}
	}
	// Output:
	// sparse — Theorem 1.3
}

// ExampleRun_planar6 6-list-colors the octahedron (a 4-regular planar
// graph) via Corollary 2.3(1), drawing each vertex's color from its own
// list.
func ExampleRun_planar6() {
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{5, 1}, {5, 2}, {5, 3}, {5, 4},
		{1, 2}, {2, 3}, {3, 4}, {4, 1},
	}
	g, err := distcolor.NewGraph(6, edges)
	if err != nil {
		panic(err)
	}
	lists := distcolor.UniformLists(6, 6) // any 6-lists work
	col, err := distcolor.Run(context.Background(), g, "planar6", distcolor.WithLists(lists))
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", distcolor.Verify(g, col.Colors, lists) == nil)
	// Output:
	// verified: true
}

// ExampleRun_arboricity colors a 4×4 grid (arboricity 2) with 2a = 4
// colors via Corollary 1.4.
func ExampleRun_arboricity() {
	b := distcolor.NewBuilder(16)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if c+1 < 4 {
				b.AddEdge(4*r+c, 4*r+c+1)
			}
			if r+1 < 4 {
				b.AddEdge(4*r+c, 4*(r+1)+c)
			}
		}
	}
	g := b.Graph()
	col, err := distcolor.Run(context.Background(), g, "arboricity", distcolor.WithArboricity(2))
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", distcolor.Verify(g, col.Colors, nil) == nil)
	fmt.Println("colors ≤ 4:", distcolor.NumColors(col.Colors) <= 4)
	// Output:
	// verified: true
	// colors ≤ 4: true
}
