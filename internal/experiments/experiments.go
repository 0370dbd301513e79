// Package experiments reproduces every theorem, lemma and figure of the
// paper as a runnable experiment (E1–E18, see DESIGN.md). Each experiment
// returns a markdown section: cmd/experiments regenerates EXPERIMENTS.md
// from them, and the root bench_test.go wraps them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"distcolor/internal/be"
	"distcolor/internal/core"
	"distcolor/internal/density"
	"distcolor/internal/gen"
	"distcolor/internal/gps"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// Section is one experiment's rendered result.
type Section struct {
	ID    string
	Title string
	Claim string // the paper's claim being checked
	Rows  []string
	Notes []string
}

// Markdown renders the section.
func (s *Section) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", s.ID, s.Title)
	fmt.Fprintf(&b, "**Paper claim.** %s\n\n", s.Claim)
	for _, r := range s.Rows {
		b.WriteString(r)
		b.WriteString("\n")
	}
	if len(s.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range s.Notes {
			fmt.Fprintf(&b, "*%s*\n", n)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Scale selects experiment sizes.
type Scale int

const (
	// Quick keeps every experiment under a few seconds (CI / tests).
	Quick Scale = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

func sizes(s Scale, quick, full []int) []int {
	if s == Quick {
		return quick
	}
	return full
}

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb)) }

func randomLists(n, k, palette int, r *rand.Rand) [][]int {
	lists := make([][]int, n)
	for v := range lists {
		perm := r.Perm(palette)
		lists[v] = perm[:k]
	}
	return lists
}

func logCube(n int) float64 {
	l := math.Log2(float64(n))
	return l * l * l
}

// mustColors verifies and returns the number of colors used.
func mustColors(g *graph.Graph, res *core.Result) int {
	if res.Clique != nil {
		panic(fmt.Sprintf("unexpected clique %v", res.Clique))
	}
	if err := seqcolor.Verify(g, res.Colors, res.Lists); err != nil {
		panic(err)
	}
	return seqcolor.NumColors(res.Colors)
}

// E1 — Theorem 1.3 main scaling.
func E1(scale Scale) *Section {
	s := &Section{
		ID:    "E1",
		Title: "Theorem 1.3 — d-list-coloring sparse graphs",
		Claim: "For d ≥ max(3, mad(G)) with no K_{d+1}, the algorithm d-list-colors G; " +
			"round complexity O(d⁴ log³ n), and O(d² log³ n) when Δ(G) ≤ d. " +
			"Check: colors ≤ d from arbitrary lists; rounds/log³n stays bounded as n grows.",
	}
	s.Rows = append(s.Rows,
		"| workload | d | n | colors (uniform lists) | ≤ d? | random d-lists ok | iterations | rounds | rounds/log³n |",
		"|---|---|---|---|---|---|---|---|---|")
	r := rng(101)
	type wl struct {
		name string
		d    int
		gen  func(n int) *graph.Graph
	}
	workloads := []wl{
		{"3-regular (Δ=d)", 3, func(n int) *graph.Graph {
			g, err := gen.RandomRegular(n, 3, r)
			if err != nil {
				panic(err)
			}
			return g
		}},
		{"4-regular (Δ=d)", 4, func(n int) *graph.Graph {
			g, err := gen.RandomRegular(n, 4, r)
			if err != nil {
				panic(err)
			}
			return g
		}},
		{"forest-union a=3 (mad≤6)", 6, func(n int) *graph.Graph { return gen.ForestUnion(n, 3, r) }},
	}
	ns := sizes(scale, []int{60, 120}, []int{100, 250, 500, 1000, 2000})
	for _, w := range workloads {
		for _, n := range ns {
			g := w.gen(n)
			if g.FindCliqueDPlus1(w.d) != nil {
				continue
			}
			// uniform lists: the d-COLORING claim (≤ d distinct colors)
			nw := local.NewShuffledNetwork(g, r)
			res, err := core.Run(context.Background(), nw, core.Config{D: w.d})
			if err != nil {
				panic(err)
			}
			k := mustColors(g, res)
			// arbitrary lists: the d-LIST-coloring claim (per-vertex compliance)
			lists := randomLists(g.N(), w.d, 2*w.d+4, r)
			lres, err := core.Run(context.Background(), local.NewShuffledNetwork(g, r), core.Config{D: w.d, Lists: lists})
			if err != nil {
				panic(err)
			}
			mustColors(g, lres)
			s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %d | %d | %v | true | %d | %d | %.1f |",
				w.name, w.d, n, k, k <= w.d, len(res.Iterations), res.Rounds(),
				float64(res.Rounds())/logCube(n)))
		}
	}
	s.Notes = append(s.Notes,
		"Rounds include the paper's constant c = 12/log₂(6/5) ≈ 45.6 in the ball radius, so absolute values are large; the shape (bounded rounds/log³n per workload) is the reproduced claim.")
	return s
}

// E2 — Corollary 1.4.
func E2(scale Scale) *Section {
	s := &Section{
		ID:    "E2",
		Title: "Corollary 1.4 — 2a-list-coloring for arboricity a ≥ 2",
		Claim: "Graphs of arboricity a ≥ 2 are 2a-list-colored in O(a⁴ log³ n) rounds " +
			"(Barenboim–Elkin needed ⌊(2+ε)a⌋+1 ≥ 2a+1).",
	}
	s.Rows = append(s.Rows,
		"| a | n | arboricity certified | colors (ours, guarantee 2a) | random 2a-lists ok | BE colors (guarantee 2a+1) |",
		"|---|---|---|---|---|---|")
	r := rng(202)
	ns := sizes(scale, []int{80}, []int{200, 500, 1000})
	for _, a := range []int{2, 3} {
		for _, n := range ns {
			g := gen.ForestUnion(n, a, r)
			certified := density.ArboricityAtMost(g, a)
			nw := local.NewShuffledNetwork(g, r)
			res, err := core.Arboricity2a(context.Background(), nw, a, core.Config{})
			if err != nil {
				panic(err)
			}
			ours := mustColors(g, res)
			lists := randomLists(g.N(), 2*a, 4*a+2, r)
			lres, err := core.Arboricity2a(context.Background(), local.NewShuffledNetwork(g, r), a, core.Config{Lists: lists})
			if err != nil {
				panic(err)
			}
			mustColors(g, lres)
			beRes, err := be.TwoAPlusOne(context.Background(), local.NewShuffledNetwork(g, r), nil, a)
			if err != nil {
				panic(err)
			}
			beK := seqcolor.NumColors(beRes.Colors)
			s.Rows = append(s.Rows, fmt.Sprintf("| %d | %d | %v | %d (%d) | true | %d (%d) |",
				a, n, certified, ours, 2*a, beK, 2*a+1))
		}
	}
	return s
}

// E3 — Corollary 2.1 / Theorem 6.1.
func E3(scale Scale) *Section {
	s := &Section{
		ID:    "E3",
		Title: "Corollary 2.1 & Theorem 6.1 — Δ-list and nice-list coloring",
		Claim: "Any Δ-list assignment (Δ ≥ 3) is colored or certified infeasible; nice list " +
			"assignments (deg-sized lists, +1 for deg ≤ 2 / simplicial) are always colorable, " +
			"in O(Δ² log³ n) rounds.",
	}
	s.Rows = append(s.Rows,
		"| instance | n | Δ | outcome | colors ≤ Δ / from lists | rounds |",
		"|---|---|---|---|---|---|")
	r := rng(303)
	n := sizes(scale, []int{50}, []int{400})[0]
	// Δ-list on a 4-regular graph
	g, err := gen.RandomRegular(n, 4, r)
	if err != nil {
		panic(err)
	}
	lists := randomLists(g.N(), 4, 9, r)
	nw := local.NewShuffledNetwork(g, r)
	res, err := core.DeltaListColor(context.Background(), nw, core.Config{Lists: lists})
	if err != nil {
		panic(err)
	}
	if err := seqcolor.Verify(g, res.Colors, lists); err != nil {
		panic(err)
	}
	s.Rows = append(s.Rows, fmt.Sprintf("| Δ-list, 4-regular | %d | 4 | colored | true | %d |", n, res.Ledger.Rounds()))
	// infeasible K5
	k5 := gen.Complete(5)
	_, err = core.DeltaListColor(context.Background(), local.NewNetwork(k5), core.Config{Lists: seqcolor.UniformLists(5, 4)})
	s.Rows = append(s.Rows, fmt.Sprintf("| K₅ with identical 4-lists | 5 | 4 | %v | — | 2 |", err != nil))
	// nice lists on a clique-decorated cycle
	g2 := gen.WithPendantCliques(gen.Cycle(n/4), 4)
	nw2 := local.NewShuffledNetwork(g2, r)
	lists2 := make([][]int, g2.N())
	for v := 0; v < g2.N(); v++ {
		size := g2.Degree(v)
		if g2.Degree(v) <= 2 || core.IsSimplicial(nw2, v) {
			size++
		}
		perm := r.Perm(g2.MaxDegree() + 4)
		lists2[v] = perm[:size]
	}
	res2, err := core.RunNice(context.Background(), nw2, core.Config{Lists: lists2})
	if err != nil {
		panic(err)
	}
	if err := seqcolor.Verify(g2, res2.Colors, lists2); err != nil {
		panic(err)
	}
	s.Rows = append(s.Rows, fmt.Sprintf("| nice lists, K₄-decorated cycle | %d | %d | colored | true | %d |",
		g2.N(), g2.MaxDegree(), res2.Rounds()))
	return s
}

// planarWorkloads for E4–E7.
func apollonian(n int, r *rand.Rand) *graph.Graph { return gen.Apollonian(n, r) }

// E4 — Corollary 2.3(1).
func E4(scale Scale) *Section {
	s := &Section{
		ID:    "E4",
		Title: "Corollary 2.3(1) — planar 6-list-coloring in O(log³ n) rounds",
		Claim: "Every planar graph is 6-list-colored in O(log³ n) rounds " +
			"(existentially tight for lists by Voigt; 5 colors is open — Question 2.8).",
	}
	s.Rows = append(s.Rows,
		"| n | colors (uniform) | ≤ 6? | random 6-lists ok | iterations | rounds | rounds/log³n |",
		"|---|---|---|---|---|---|---|")
	r := rng(404)
	for _, n := range sizes(scale, []int{80, 160}, []int{250, 500, 1000, 2000, 4000}) {
		g := apollonian(n, r)
		nw := local.NewShuffledNetwork(g, r)
		res, err := core.Planar6(context.Background(), nw, core.Config{})
		if err != nil {
			panic(err)
		}
		k := mustColors(g, res)
		lists := randomLists(g.N(), 6, 14, r)
		lres, err := core.Planar6(context.Background(), local.NewShuffledNetwork(g, r), core.Config{Lists: lists})
		if err != nil {
			panic(err)
		}
		mustColors(g, lres)
		s.Rows = append(s.Rows, fmt.Sprintf("| %d | %d | %v | true | %d | %d | %.1f |",
			n, k, k <= 6, len(res.Iterations), res.Rounds(), float64(res.Rounds())/logCube(n)))
	}
	return s
}

// E5 — Corollary 2.3(2).
func E5(scale Scale) *Section {
	s := &Section{
		ID:    "E5",
		Title: "Corollary 2.3(2) — triangle-free planar 4-list-coloring",
		Claim: "Triangle-free planar graphs (mad < 4) are 4-list-colored; existentially " +
			"tight (some are not 3-list-colorable, Voigt 1995); 3-COLORING them needs Ω(n) rounds (E13).",
	}
	s.Rows = append(s.Rows,
		"| workload | n | girth | colors (uniform) | ≤ 4? | random 4-lists ok | rounds |",
		"|---|---|---|---|---|---|---|")
	r := rng(505)
	run := func(label string, g *graph.Graph) {
		nw := local.NewShuffledNetwork(g, r)
		res, err := core.TriangleFree4(context.Background(), nw, core.Config{})
		if err != nil {
			panic(err)
		}
		k := mustColors(g, res)
		lists := randomLists(g.N(), 4, 9, r)
		lres, err := core.TriangleFree4(context.Background(), local.NewShuffledNetwork(g, r), core.Config{Lists: lists})
		if err != nil {
			panic(err)
		}
		mustColors(g, lres)
		s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %d | %d | %v | true | %d |",
			label, g.N(), g.Girth(nil), k, k <= 4, res.Rounds()))
	}
	for _, side := range sizes(scale, []int{8}, []int{15, 25, 40}) {
		run(fmt.Sprintf("%d×%d grid", side, side), gen.Grid(side, side))
	}
	base := apollonian(sizes(scale, []int{40}, []int{300})[0], r)
	run("subdivided triangulation", gen.Subdivide(base, 1))
	return s
}

// E6 — Corollary 2.3(3).
func E6(scale Scale) *Section {
	s := &Section{
		ID:    "E6",
		Title: "Corollary 2.3(3) — girth ≥ 6 planar 3-list-coloring",
		Claim: "Planar graphs of girth ≥ 6 (mad < 3) are 3-list-colored in O(log³ n) rounds.",
	}
	s.Rows = append(s.Rows,
		"| n | girth | mad < 3 certified | colors (uniform) | ≤ 3? | random 3-lists ok | rounds |",
		"|---|---|---|---|---|---|---|")
	r := rng(606)
	for _, base := range sizes(scale, []int{30}, []int{100, 300, 600}) {
		g := gen.Subdivide(apollonian(base, r), 1)
		nw := local.NewShuffledNetwork(g, r)
		res, err := core.Girth6Planar3(context.Background(), nw, core.Config{})
		if err != nil {
			panic(err)
		}
		k := mustColors(g, res)
		lists := randomLists(g.N(), 3, 7, r)
		lres, err := core.Girth6Planar3(context.Background(), local.NewShuffledNetwork(g, r), core.Config{Lists: lists})
		if err != nil {
			panic(err)
		}
		mustColors(g, lres)
		s.Rows = append(s.Rows, fmt.Sprintf("| %d | %d | %v | %d | %v | true | %d |",
			g.N(), g.Girth(nil), density.MadAtMost(g, 3), k, k <= 3, res.Rounds()))
	}
	return s
}

// E7 — GPS baseline comparison.
func E7(scale Scale) *Section {
	s := &Section{
		ID:    "E7",
		Title: "GPS 7 colors vs paper 6 colors on planar graphs",
		Claim: "GPS colors planar graphs with 7 colors in O(log n)-ish rounds; the paper " +
			"spends a polylog factor more rounds to save one color (6). The crossover is exactly " +
			"as predicted: GPS wins rounds, the paper wins colors.",
	}
	s.Rows = append(s.Rows,
		"| n | GPS colors (guarantee 7) | GPS rounds | paper colors (guarantee 6) | paper rounds |",
		"|---|---|---|---|---|")
	r := rng(707)
	for _, n := range sizes(scale, []int{100}, []int{250, 500, 1000, 2000}) {
		g := apollonian(n, r)
		ledger := &local.Ledger{}
		gres, err := gps.Planar7(context.Background(), local.NewShuffledNetwork(g, r), ledger)
		if err != nil {
			panic(err)
		}
		if err := seqcolor.Verify(g, gres.Colors, nil); err != nil {
			panic(err)
		}
		pres, err := core.Planar6(context.Background(), local.NewShuffledNetwork(g, r), core.Config{})
		if err != nil {
			panic(err)
		}
		pk := mustColors(g, pres)
		gk := seqcolor.NumColors(gres.Colors)
		s.Rows = append(s.Rows, fmt.Sprintf("| %d | %d (7) | %d | %d (6) | %d |",
			n, gk, ledger.Rounds(), pk, pres.Rounds()))
	}
	s.Notes = append(s.Notes,
		"Color GUARANTEES are the paper-vs-baseline separation (6 < 7); greedy layer coloring can use fewer colors than its guarantee on easy instances. GPS's round advantage (O(log n) vs O(log³ n) with a large constant) is the price of the saved color, exactly as the paper describes.")
	return s
}

// E8 — Barenboim–Elkin comparison.
func E8(scale Scale) *Section {
	s := &Section{
		ID:    "E8",
		Title: "Barenboim–Elkin ⌊(2+ε)a⌋+1 vs paper 2a",
		Claim: "The paper improves the color count by ≥ 1 always (2a vs 2a+1 at ε < 1/a) and by " +
			"3 when mad is an even integer (e.g. 2a-regular unions): 2a vs ⌊(2+ε)a⌋+1.",
	}
	s.Rows = append(s.Rows,
		"| a | ε | n | BE colors (bound) | paper colors (bound 2a) |",
		"|---|---|---|---|---|")
	r := rng(808)
	n := sizes(scale, []int{100}, []int{600})[0]
	for _, a := range []int{2, 3} {
		g := gen.ForestUnion(n, a, r)
		for _, eps := range []float64{1, 0.5, 1 / float64(a+1)} {
			nw := local.NewShuffledNetwork(g, r)
			beRes, err := be.ColorArb(context.Background(), nw, nil, a, eps)
			if err != nil {
				panic(err)
			}
			bound := be.Threshold(a, eps) + 1
			s.Rows = append(s.Rows, fmt.Sprintf("| %d | %.2f | %d | %d (%d) | — |",
				a, eps, n, seqcolor.NumColors(beRes.Colors), bound))
		}
		pres, err := core.Arboricity2a(context.Background(), local.NewShuffledNetwork(g, r), a, core.Config{})
		if err != nil {
			panic(err)
		}
		s.Rows = append(s.Rows, fmt.Sprintf("| %d | — | %d | — | %d (%d) |",
			a, n, mustColors(g, pres), 2*a))
	}
	return s
}

// E9 — Lemma 3.1 happy fractions + ball-constant ablation.
func E9(scale Scale) *Section {
	s := &Section{
		ID:    "E9",
		Title: "Lemma 3.1 — the happy set is a constant fraction",
		Claim: "|A| ≥ n/(3d)³ in general and ≥ n/(12d+1) when Δ ≤ d. Measured: the minimum " +
			"happy fraction over all peeling iterations, at the paper's ball constant and smaller ones.",
	}
	s.Rows = append(s.Rows,
		"| workload | d | ballC | min |A|/alive | paper bound | iterations | outcome |",
		"|---|---|---|---|---|---|---|")
	r := rng(909)
	n := sizes(scale, []int{80}, []int{500})[0]
	g := apollonian(n, r)
	grid := gen.Grid(sizes(scale, []int{9}, []int{22})[0], sizes(scale, []int{9}, []int{22})[0])
	type cfg struct {
		name  string
		g     *graph.Graph
		d     int
		bound float64
	}
	cfgs := []cfg{
		{"apollonian", g, 6, 1.0 / float64(18*18*18)},
		{"grid (Δ≤d)", grid, 4, 1.0 / float64(12*4+1)},
	}
	for _, c := range cfgs {
		for _, bc := range []float64{0, 1, 0.25} {
			nw := local.NewShuffledNetwork(c.g, r)
			res, err := core.Run(context.Background(), nw, core.Config{D: c.d, BallC: bc})
			label := fmt.Sprintf("%.2f", bc)
			if bc == 0 {
				label = "paper"
			}
			if err != nil {
				s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %s | — | %.5f | — | %v |",
					c.name, c.d, label, c.bound, err))
				continue
			}
			mustColors(c.g, res)
			minFrac := 1.0
			for _, it := range res.Iterations {
				f := float64(it.Happy) / float64(it.Alive)
				if f < minFrac {
					minFrac = f
				}
			}
			s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %s | %.3f | %.5f | %d | ok |",
				c.name, c.d, label, minFrac, c.bound, len(res.Iterations)))
		}
	}
	return s
}

// E10 — Lemma 3.2 extension cost breakdown.
func E10(scale Scale) *Section {
	s := &Section{
		ID:    "E10",
		Title: "Lemma 3.2 — extension phase round breakdown",
		Claim: "Each extension runs in O(d log² n) rounds: ruling forest O(log² n), " +
			"schedule O(log* n + d²-ish), layered pass O(d log² n), root balls O(log n).",
	}
	r := rng(1010)
	n := sizes(scale, []int{120}, []int{1000})[0]
	g := apollonian(n, r)
	nw := local.NewShuffledNetwork(g, r)
	res, err := core.Planar6(context.Background(), nw, core.Config{})
	if err != nil {
		panic(err)
	}
	mustColors(g, res)
	s.Rows = append(s.Rows, "| phase | rounds | share |", "|---|---|---|")
	total := res.Rounds()
	phases := res.Ledger.ByPhase()
	sort.Slice(phases, func(i, j int) bool { return phases[i].Rounds > phases[j].Rounds })
	for _, p := range phases {
		s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %.1f%% |",
			p.Phase, p.Rounds, 100*float64(p.Rounds)/float64(total)))
	}
	s.Notes = append(s.Notes, fmt.Sprintf("n=%d, total %d rounds across %d peeling iterations.",
		n, total, len(res.Iterations)))
	return s
}

// E11 — Proposition 4.4 / Figure 4.
func E11(scale Scale) *Section {
	s := &Section{
		ID:    "E11",
		Title: "Proposition 4.4 & Figure 4 — the sad-set construction H",
		Claim: "G[S] has ≥ |S|/12 vertices of degree ≤ d−1 (at the paper's radius, where sad " +
			"sets are empty for feasible sizes — the Moore-bound mechanism of the proof); at " +
			"ablated radii the Figure 4 pipeline (clique contraction, suppression) is measured.",
	}
	s.Rows = append(s.Rows,
		"| workload | d | radius | |S| | lowdeg(G[S]) | bound |S|/12 | clique blocks | suppressed | girth(H) | avg deg H |",
		"|---|---|---|---|---|---|---|---|---|---|")
	r := rng(1111)
	n := sizes(scale, []int{150}, []int{400})[0]
	g3, err := gen.RandomRegular(n, 3, r)
	if err != nil {
		panic(err)
	}
	for _, radius := range []int{1, 2, 4, 10000} {
		st := core.SadAnalysis(g3, 3, radius)
		rl := fmt.Sprint(radius)
		if radius == 10000 {
			rl = "paper(sat)"
		}
		s.Rows = append(s.Rows, fmt.Sprintf("| 3-regular | 3 | %s | %d | %d | %d | %d | %d | %d | %.2f |",
			rl, st.Sad, st.LowDegInS, st.Prop44Bound, st.CliqueBlocks, st.Suppressed, st.HGirth, st.HAvgDegree))
	}
	return s
}

// E12 — Theorem 1.5.
func E12(scale Scale) *Section {
	return lowerBoundToroidal(scale)
}

// E13 — Theorem 2.5.
func E13(scale Scale) *Section {
	return lowerBoundKleinCylinder(scale)
}

// E14 — Theorem 2.6.
func E14(scale Scale) *Section {
	return lowerBoundKleinGrid(scale)
}

// E15 — Linial path argument.
func E15(scale Scale) *Section {
	return lowerBoundPath(scale)
}

// E16 — Corollary 2.11.
func E16(scale Scale) *Section {
	s := &Section{
		ID:    "E16",
		Title: "Corollary 2.11 — H(g)-list-coloring on surfaces",
		Claim: "Graphs of Euler genus g are H(g)-list-colored in O(log³ n) rounds; " +
			"H(1)=6, H(2)=7 (Heawood).",
	}
	s.Rows = append(s.Rows,
		"| surface | n | H(g) | colors (uniform) | ≤ H(g)? | random H(g)-lists ok | rounds |",
		"|---|---|---|---|---|---|---|")
	r := rng(1616)
	run := func(label string, g *graph.Graph) {
		nw := local.NewShuffledNetwork(g, r)
		res, err := core.GenusHg(context.Background(), nw, 2, core.Config{})
		if err != nil {
			panic(err)
		}
		k := mustColors(g, res)
		lists := randomLists(g.N(), core.HeawoodNumber(2), 16, r)
		lres, err := core.GenusHg(context.Background(), local.NewShuffledNetwork(g, r), 2, core.Config{Lists: lists})
		if err != nil {
			panic(err)
		}
		mustColors(g, lres)
		s.Rows = append(s.Rows, fmt.Sprintf("| %s | %d | %d | %d | %v | true | %d |",
			label, g.N(), core.HeawoodNumber(2), k, k <= core.HeawoodNumber(2), res.Rounds()))
	}
	n := sizes(scale, []int{40}, []int{200})[0]
	run("torus triangulation C_n(1,2,3)", gen.CyclePower(n, 3))
	run("Klein-bottle grid", gen.KleinGrid(5, sizes(scale, []int{9}, []int{41})[0]))
	return s
}

// E17 — randomized remark.
func E17(scale Scale) *Section {
	return randomizedSection(scale)
}

// E18 — Figure 1 / Theorem 1.1 dichotomy.
func E18(scale Scale) *Section {
	return gallaiDichotomy(scale)
}

// All runs every experiment at the given scale.
func All(scale Scale) []*Section {
	return []*Section{
		E1(scale), E2(scale), E3(scale), E4(scale), E5(scale), E6(scale),
		E7(scale), E8(scale), E9(scale), E10(scale), E11(scale), E12(scale),
		E13(scale), E14(scale), E15(scale), E16(scale), E17(scale), E18(scale),
		E19(scale),
	}
}
