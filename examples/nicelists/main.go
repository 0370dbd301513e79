// nicelists demonstrates Theorem 6.1: list-coloring with *nice* degree
// lists — every vertex gets only deg(v) colors, except vertices of degree
// ≤ 2 and simplicial vertices, which get deg(v)+1. This subsumes
// Corollary 2.1 (Δ-list-coloring) and is the paper's sharpest interface:
// the paths-with-cliques obstruction from Section 6 shows why the two
// exceptions are necessary.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"distcolor"
	"distcolor/internal/core"
	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

func main() {
	rng := rand.New(rand.NewPCG(13, 17))

	// Section 6's motivating shape: a long cycle with a K4 hung on every
	// vertex. Highly irregular: degrees 3 (clique interiors) and 5 (cycle).
	g := gen.WithPendantCliques(gen.Cycle(100), 4)
	fmt.Printf("K4-decorated cycle: n=%d, degrees 3..%d\n", g.N(), g.MaxDegree())

	lists := buildNiceLists(g, rng)
	sizes := map[int]int{}
	for v := range lists {
		sizes[len(lists[v])]++
	}
	fmt.Printf("nice list sizes: %v (deg-sized, +1 only for deg ≤ 2 / simplicial)\n", sizes)

	col, err := distcolor.Run(context.Background(), g, "nice", distcolor.WithSeed(9), distcolor.WithLists(lists))
	if err != nil {
		log.Fatal(err)
	}
	if err := distcolor.Verify(g, col.Colors, lists); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 6.1: %s\n\n", col)

	// Corollary 2.1 as a special case: Δ-sized lists on a 4-regular graph.
	reg, err := gen.RandomRegular(300, 4, rng)
	if err != nil {
		log.Fatal(err)
	}
	dlists := make([][]int, reg.N())
	for v := range dlists {
		perm := rng.Perm(9)
		dlists[v] = perm[:4]
	}
	dcol, err := distcolor.Run(context.Background(), reg, "delta", distcolor.WithSeed(9), distcolor.WithLists(dlists))
	if err != nil {
		log.Fatal(err)
	}
	if err := distcolor.Verify(reg, dcol.Colors, dlists); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Corollary 2.1 on a 4-regular graph with private 4-lists: verified, %d rounds\n", dcol.Rounds)

	// The infeasible case is *detected*, not mis-colored: K5 with one
	// shared 4-list has no system of distinct representatives.
	k5 := gen.Complete(5)
	_, err = distcolor.Run(context.Background(), k5, "delta", distcolor.WithLists(distcolor.UniformLists(5, 4)))
	fmt.Printf("K5 with identical 4-lists: %v (certified by Hall matching)\n", err)
}

func buildNiceLists(g *graph.Graph, rng *rand.Rand) [][]int {
	nw := local.NewNetwork(g)
	lists := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		size := g.Degree(v)
		if size <= 2 || core.IsSimplicial(nw, v) {
			size++
		}
		perm := rng.Perm(g.MaxDegree() + 4)
		lists[v] = perm[:size]
	}
	return lists
}
