package distcolor

// One benchmark per experiment (see DESIGN.md §3 and EXPERIMENTS.md):
// each bench re-runs the corresponding paper-claim reproduction at Quick
// scale and reports LOCAL rounds (the paper's complexity measure) alongside
// wall time. `go run ./cmd/experiments` regenerates the full-scale tables.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"distcolor/internal/core"
	"distcolor/internal/experiments"
	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/lower"
)

func benchSection(b *testing.B, run func(experiments.Scale) *experiments.Section) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := run(experiments.Quick)
		if len(s.Rows) < 2 {
			b.Fatal("experiment produced no data")
		}
	}
}

func BenchmarkE1_Theorem13_Main(b *testing.B)          { benchSection(b, experiments.E1) }
func BenchmarkE2_Corollary14_Arboricity(b *testing.B)  { benchSection(b, experiments.E2) }
func BenchmarkE3_Theorem61_NiceLists(b *testing.B)     { benchSection(b, experiments.E3) }
func BenchmarkE4_Planar6(b *testing.B)                 { benchSection(b, experiments.E4) }
func BenchmarkE5_TriangleFree4(b *testing.B)           { benchSection(b, experiments.E5) }
func BenchmarkE6_Girth6_3Colors(b *testing.B)          { benchSection(b, experiments.E6) }
func BenchmarkE7_GPS_vs_ABBE(b *testing.B)             { benchSection(b, experiments.E7) }
func BenchmarkE8_BE_vs_ABBE(b *testing.B)              { benchSection(b, experiments.E8) }
func BenchmarkE9_HappyFraction(b *testing.B)           { benchSection(b, experiments.E9) }
func BenchmarkE10_ExtensionRounds(b *testing.B)        { benchSection(b, experiments.E10) }
func BenchmarkE11_SadConstruction(b *testing.B)        { benchSection(b, experiments.E11) }
func BenchmarkE12_Theorem15_LowerBound(b *testing.B)   { benchSection(b, experiments.E12) }
func BenchmarkE13_Theorem25_KleinGrid(b *testing.B)    { benchSection(b, experiments.E13) }
func BenchmarkE14_Theorem26_Grid(b *testing.B)         { benchSection(b, experiments.E14) }
func BenchmarkE15_PathTwoColoring(b *testing.B)        { benchSection(b, experiments.E15) }
func BenchmarkE16_Genus(b *testing.B)                  { benchSection(b, experiments.E16) }
func BenchmarkE17_RandomizedListColoring(b *testing.B) { benchSection(b, experiments.E17) }
func BenchmarkE18_GallaiDichotomy(b *testing.B)        { benchSection(b, experiments.E18) }
func BenchmarkE19_NetworkDecomposition(b *testing.B)   { benchSection(b, experiments.E19) }

// --- Component microbenchmarks: the scaling of the two algorithmic halves
// (Lemma 3.1 peeling and Lemma 3.2 extension) and key substrates.

func benchPlanar6AtSize(b *testing.B, n int) {
	b.Helper()
	r := rand.New(rand.NewPCG(uint64(n), 7))
	g := gen.Apollonian(n, r)
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		nw := local.NewShuffledNetwork(g, r)
		res, err := core.Planar6(context.Background(), nw, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds()
	}
	b.ReportMetric(float64(rounds), "LOCAL-rounds")
}

func BenchmarkPlanar6_n250(b *testing.B)  { benchPlanar6AtSize(b, 250) }
func BenchmarkPlanar6_n1000(b *testing.B) { benchPlanar6AtSize(b, 1000) }
func BenchmarkPlanar6_n4000(b *testing.B) { benchPlanar6AtSize(b, 4000) }

func BenchmarkTheorem13_3Regular_n500(b *testing.B) {
	r := rand.New(rand.NewPCG(11, 13))
	g, err := gen.RandomRegular(500, 3, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Run(context.Background(), local.NewShuffledNetwork(g, r), core.Config{D: 3})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds()
	}
	b.ReportMetric(float64(rounds), "LOCAL-rounds")
}

func BenchmarkGPS7_n4000(b *testing.B) {
	r := rand.New(rand.NewPCG(17, 19))
	g := gen.Apollonian(4000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), g, "gps7", WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChromaticNumber_Klein5x7(b *testing.B) {
	g := gen.KleinGrid(5, 7)
	for i := 0; i < b.N; i++ {
		chi, err := lower.ChromaticNumber(g, 5)
		if err != nil || chi != 4 {
			b.Fatalf("χ=%d err=%v", chi, err)
		}
	}
}

// --- Engine throughput grid: SparseListColor (Theorem 1.3) across the three
// workload families the paper targets — planar (Apollonian triangulations,
// d=6), bounded arboricity (union of 2 random forests, d=4) and random
// sparse (random 3-regular, d=3) — at n ∈ {1e3, 1e4, 1e5}. These are the
// acceptance benchmarks for the CSR + worker-pool engine refactor; compare
// with `benchstat` across commits.

type engineCase struct {
	family string
	d      int
	build  func(n int, r *rand.Rand) *Graph
}

func engineCases() []engineCase {
	return []engineCase{
		{"planar", 6, func(n int, r *rand.Rand) *Graph { return gen.Apollonian(n, r) }},
		{"arboricity", 4, func(n int, r *rand.Rand) *Graph { return gen.ForestUnion(n, 2, r) }},
		{"random-sparse", 3, func(n int, r *rand.Rand) *Graph {
			g, err := gen.RandomRegular(n, 3, r)
			if err != nil {
				panic(err)
			}
			return g
		}},
	}
}

func BenchmarkSparseListColor(b *testing.B) {
	sizes := []struct {
		label string
		n     int
	}{{"n1e3", 1_000}, {"n1e4", 10_000}, {"n1e5", 100_000}}
	for _, tc := range engineCases() {
		for _, sz := range sizes {
			b.Run(tc.family+"/"+sz.label, func(b *testing.B) {
				r := rand.New(rand.NewPCG(uint64(sz.n), uint64(tc.d)))
				g := tc.build(sz.n, r)
				b.SetBytes(int64(2 * g.M())) // adjacency entries touched per pass
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(context.Background(), g, "sparse", WithD(tc.d))
					if err != nil {
						b.Fatal(err)
					}
					if res.Colors == nil {
						b.Fatalf("clique certificate on a K_{%d+1}-free input", tc.d)
					}
				}
			})
		}
	}
}

// BenchmarkCollectBallsSync measures the genuine message-passing flooding
// engine (worker-pool RunSync + sorted-slice merging) on a 2D grid, where
// radius-r balls have Θ(r²) vertices.
func BenchmarkCollectBallsSync(b *testing.B) {
	for _, side := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("grid%dx%d", side, side), func(b *testing.B) {
			g := gen.Grid(side, side)
			nw := local.NewNetwork(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := local.CollectBallsSync(context.Background(), nw, nil, "flood", 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deliveryProgram broadcasts a tiny payload every round: Step cost is
// negligible, so RunSync wall time is dominated by the message plane
// (routing, staging, shard delivery).
type deliveryProgram struct {
	id     int
	rounds int
	acc    int
}

func (p *deliveryProgram) Init(info local.NodeInfo) { p.id = info.ID }
func (p *deliveryProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	for _, in := range inbox {
		p.acc ^= in.Msg.(int)
	}
	if round > p.rounds {
		return nil, true
	}
	return []local.Outbound{{Port: local.Broadcast, Msg: p.id}}, false
}
func (p *deliveryProgram) Output() any { return p.acc }

// BenchmarkRunSyncDelivery measures the sharded message plane on its worst
// case: a hub-heavy graph (a clique of hubs, each fanning out to hundreds
// of leaves) where a handful of receivers absorb most of the traffic, under
// a program whose step work is trivial — so the benchmark is bound by
// message routing and delivery, not by node computation. It runs with no
// ledger — the observability-off baseline its Obs twin is gated against.
func BenchmarkRunSyncDelivery(b *testing.B) {
	benchRunSyncDelivery(b, func() *local.Ledger { return nil })
}

// BenchmarkRunSyncDeliveryObs is the same workload with a fresh round-trace
// recorder attached, i.e. full per-round observability including per-shard
// delivery timing. `make bench-obs` gates it within 5% of the no-op twin.
func BenchmarkRunSyncDeliveryObs(b *testing.B) {
	benchRunSyncDelivery(b, func() *local.Ledger {
		return &local.Ledger{Trace: &local.RoundTrace{}}
	})
}

func benchRunSyncDelivery(b *testing.B, mkLedger func() *local.Ledger) {
	const hubs, leavesPerHub, rounds = 8, 500, 8
	bld := NewBuilder(hubs * (1 + leavesPerHub))
	for h := 0; h < hubs; h++ {
		for g := h + 1; g < hubs; g++ {
			if err := bld.AddEdge(h, g); err != nil {
				b.Fatal(err)
			}
		}
		for l := 0; l < leavesPerHub; l++ {
			if err := bld.AddEdge(h, hubs+h*leavesPerHub+l); err != nil {
				b.Fatal(err)
			}
		}
	}
	g := bld.Graph()
	nw := local.NewNetwork(g)
	b.SetBytes(int64(2 * g.M() * rounds)) // messages per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := local.RunSync(context.Background(), nw, mkLedger(), "bench", rounds+3,
			func(v int) local.Program { return &deliveryProgram{rounds: rounds} })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHappySet_Apollonian_n2000(b *testing.B) {
	r := rand.New(rand.NewPCG(23, 29))
	g := gen.Apollonian(2000, r)
	for i := 0; i < b.N; i++ {
		st := core.SadAnalysis(g, 6, 10000)
		if st.Rich == 0 {
			b.Fatal("no rich vertices")
		}
	}
}
