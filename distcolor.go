// Package distcolor is a Go implementation of "Distributed coloring in
// sparse graphs with fewer colors" (Aboulker, Bonamy, Bousquet, Esperet,
// PODC 2018): deterministic LOCAL-model algorithms that color sparse graphs
// with an optimal number of colors in polylogarithmically many rounds.
//
// The package is organized around a registry of self-describing Algorithm
// descriptors (wire name, parameter schema, palette size, paper mapping,
// run func) and one context-aware entry point:
//
//	col, err := distcolor.Run(ctx, g, "planar6",
//	    distcolor.WithSeed(7),
//	    distcolor.WithProgress(func(e distcolor.PhaseEvent) { … }))
//
// Cancel ctx to stop a run within one LOCAL round. The CLI (cmd/distcolor)
// and the HTTP server (cmd/distcolor-serve) dispatch through the same
// registry, so a name accepted anywhere is accepted everywhere.
//
// Built-in algorithms (all exact reproductions of the paper's results):
//
//   - sparse: Theorem 1.3 — d-list-coloring of graphs with mad(G) ≤ d
//     (d ≥ 3, no K_{d+1}) in O(d⁴ log³ n) rounds.
//   - planar6 / trianglefree4 / girth6: Corollary 2.3 — 6, 4 and 3
//     list-colors for planar graphs in O(log³ n) rounds.
//   - arboricity: Corollary 1.4 — 2a colors for arboricity-a graphs.
//   - genus: Corollary 2.11 — H(g) list-colors for Euler genus g.
//   - delta: Corollary 2.1 — Δ-list-coloring or a certificate of
//     infeasibility.
//   - nice: Theorem 6.1 — (deg+ε)-list-coloring for nice lists.
//   - gps7 / be / randomized / luby: the baselines the paper improves upon.
//
// Every algorithm returns the exact LOCAL round cost it incurred (with a
// per-phase breakdown) alongside the coloring; Run verifies every coloring
// once over the whole graph before returning it.
package distcolor

import (
	"fmt"
	"math/rand/v2"

	"distcolor/internal/core"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// Uncolored marks an uncolored vertex in partial colorings.
const Uncolored = seqcolor.Uncolored

// idStream doubles as the PCG stream constant for seed-derived ID shuffles
// and for the run RNG (lists, per-node seeds), keeping every historical
// (seed → result) mapping intact.
const (
	idStream   = 0x9e3779b97f4a7c15
	listStream = idStream
)

// Graph is an immutable simple undirected graph on vertices 0..N-1.
type Graph = graph.Graph

// NewGraph builds a graph from an edge list. Duplicate edges, self-loops
// and out-of-range endpoints are errors.
func NewGraph(n int, edges [][2]int) (*Graph, error) { return graph.New(n, edges) }

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Coloring is the result of a distributed coloring run.
type Coloring struct {
	// Algorithm is the wire name of the algorithm that produced the run
	// (set by Run).
	Algorithm string
	// Colors[v] is v's color; when the algorithm's alternative outcome is a
	// clique (Theorem 1.3) Colors is nil and Clique is set.
	Colors []int
	// Clique is a K_{d+1} certificate, when found.
	Clique []int
	// Lists echoes the list assignment the run actually used (nil when the
	// algorithm fixes its own palette); the coloring is verified against it.
	Lists [][]int
	// Rounds is the total LOCAL round cost.
	Rounds int
	// Phases is the per-phase round breakdown, largest first.
	Phases []Phase
	// Messages counts the point-to-point messages delivered by the
	// message-passing engine during the run (0 for purely centrally
	// simulated phases); like Rounds it is deterministic in (graph,
	// config, seed) at any GOMAXPROCS.
	Messages int
}

// Phase names one charged phase of the ledger.
type Phase struct {
	Name   string
	Rounds int
}

func fromResult(res *core.Result) *Coloring {
	c := &Coloring{
		Colors:   res.Colors,
		Clique:   res.Clique,
		Lists:    res.Lists,
		Rounds:   res.Ledger.Rounds(),
		Messages: res.Ledger.Messages(),
	}
	for _, p := range res.Ledger.ByPhase() {
		c.Phases = append(c.Phases, Phase{Name: p.Phase, Rounds: p.Rounds})
	}
	return c
}

func coloringFromLedger(colors []int, ledger *local.Ledger) *Coloring {
	c := &Coloring{Colors: colors, Rounds: ledger.Rounds(), Messages: ledger.Messages()}
	for _, p := range ledger.ByPhase() {
		c.Phases = append(c.Phases, Phase{Name: p.Phase, Rounds: p.Rounds})
	}
	return c
}

// network binds g to an ID assignment: identity for seed 0, a seed-derived
// shuffle otherwise.
func network(g *Graph, seed uint64) *local.Network {
	if seed == 0 {
		return local.NewNetwork(g)
	}
	rng := rand.New(rand.NewPCG(seed, idStream))
	return local.NewShuffledNetwork(g, rng)
}

// HeawoodNumber returns H(g) = ⌊(7+√(24g+1))/2⌋ (Corollary 2.11).
func HeawoodNumber(genus int) int { return core.HeawoodNumber(genus) }

// Verify checks that colors is a proper coloring of g drawn from lists
// (nil lists skips the list check).
func Verify(g *Graph, colors []int, lists [][]int) error {
	return seqcolor.Verify(g, colors, lists)
}

// NumColors counts distinct colors used.
func NumColors(colors []int) int { return seqcolor.NumColors(colors) }

// UniformLists returns n copies of the palette {0..k-1}.
func UniformLists(n, k int) [][]int { return seqcolor.UniformLists(n, k) }

// String renders a compact summary of a coloring.
func (c *Coloring) String() string {
	if c.Clique != nil {
		return fmt.Sprintf("clique found: %v (rounds=%d)", c.Clique, c.Rounds)
	}
	return fmt.Sprintf("colored with %d colors in %d LOCAL rounds", NumColors(c.Colors), c.Rounds)
}
