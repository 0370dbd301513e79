package experiments

import (
	"fmt"

	"distcolor/internal/decomp"
	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/seqcolor"
)

// E19 — the network-decomposition remark (Section 1.5, reference [24]).
func E19(scale Scale) *Section {
	s := &Section{
		ID:    "E19",
		Title: "Network decompositions — the paper's d³·2^O(√log n) remark",
		Claim: "With a (q, diam) network decomposition, (deg+1)-list-coloring costs O(q·diam) " +
			"rounds (each color class solves its clusters in parallel in O(diam) rounds). The " +
			"(log n, O(log n)) decomposition gives O(log² n) — the building block behind the " +
			"paper's alternative d³·2^O(√log n) bound, whose distributed construction " +
			"(Panconesi–Srinivasan) the paper, and this repo, leave aside.",
	}
	s.Rows = append(s.Rows,
		"| workload | n | decomp colors | decomp radius | rounds (decomp Δ+1) | rounds (Linial Δ+1) |",
		"|---|---|---|---|---|---|")
	r := rng(1919)
	for _, n := range sizes(scale, []int{120}, []int{250, 1000, 4000}) {
		g := gen.Apollonian(n, r)
		d := decomp.Carve(g, nil)
		nw := local.NewShuffledNetwork(g, r)
		lists := make([][]int, g.N())
		for v := range lists {
			perm := r.Perm(g.MaxDegree() + 4)
			lists[v] = perm[:g.Degree(v)+1]
		}
		var l1 local.Ledger
		colors, err := decomp.DegPlusOneListColor(nw, &l1, "decomp", nil, d, lists)
		if err != nil {
			panic(err)
		}
		if err := seqcolor.Verify(g, colors, seqcolor.Given(lists)); err != nil {
			panic(err)
		}
		var l2 local.Ledger
		var ws reduce.Workspace
		lin := ws.DegPlusOne(nw, &l2, "linial", nil)
		if err := reduce.VerifyMaskColoring(g, nil, lin); err != nil {
			panic(err)
		}
		s.Rows = append(s.Rows, fmt.Sprintf("| apollonian | %d | %d | %d | %d | %d |",
			n, d.Colors, d.Radius, l1.Rounds(), l2.Rounds()))
	}
	s.Notes = append(s.Notes,
		"The decomposition route also handles LIST coloring directly (clusters extend partial list colorings), which Linial-style reduction does not; that flexibility is why network decompositions appear throughout the paper's reference list.")
	return s
}
