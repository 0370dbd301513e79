package graph_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewPCG(uint64(n), 99))
	b := graph.NewBuilder(n)
	// sparse: ~3n edges
	for v := 1; v < n; v++ {
		b.AddEdgeOK(v, rng.IntN(v))
		b.AddEdgeOK(v, rng.IntN(v))
		b.AddEdgeOK(v, rng.IntN(v))
	}
	return b.Graph()
}

func BenchmarkBFS_n10000(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.BFS([]int{i % g.N()}, nil, -1)
		if len(res.Order) == 0 {
			b.Fatal("empty BFS")
		}
	}
}

func BenchmarkBlocks_n10000(b *testing.B) {
	g := benchGraph(10000)
	tr := new(graph.Traversal).Bind(g)
	tr.Blocks(nil) // warm: the DFS records and stacks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := tr.Blocks(nil)
		if len(dec.Blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

// BenchmarkBlocks_Regular3_n100000 decomposes the random 3-regular graph of
// the color-sparse workload's size: its state arrays outgrow the cache, as
// on the Theorem 1.1 path, which the n=1e4 benchmark does not show.
func BenchmarkBlocks_Regular3_n100000(b *testing.B) {
	g, err := gen.RandomRegular(100000, 3, rand.New(rand.NewPCG(100000, 3)))
	if err != nil {
		b.Fatal(err)
	}
	tr := new(graph.Traversal).Bind(g)
	tr.Blocks(nil) // warm: the DFS records and stacks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := tr.Blocks(nil)
		if len(dec.Blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

func BenchmarkGallaiRecognition_n10000(b *testing.B) {
	g := benchGraph(10000)
	tr := new(graph.Traversal).Bind(g)
	tr.IsGallaiForest(nil, nil) // warm: the DFS records and stacks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.IsGallaiForest(nil, nil)
	}
}

func BenchmarkDegeneracy_n10000(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Degeneracy()
		if res.Degeneracy == 0 {
			b.Fatal("degeneracy 0")
		}
	}
}

// BenchmarkFindCliqueDPlus1 times the clique check that opens Theorem 1.3
// on the two library workloads' graph families at n=1e5: an Apollonian
// graph at d=6 and a random 3-regular graph at d=3, neither holding a
// K_{d+1}. Each op searches a fresh Clone, as a newly opened graph is
// searched, so no per-graph cache carries over between ops.
func BenchmarkFindCliqueDPlus1(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 5))
	regular, err := gen.RandomRegular(100000, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"apollonian_n1e5", gen.Apollonian(100000, rng), 6},
		{"regular3_n1e5", regular, 3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				g := c.g.Clone()
				b.StartTimer()
				if clique := g.FindCliqueDPlus1(c.d); clique != nil {
					b.Fatalf("unexpected clique %v", clique)
				}
			}
		})
	}
}

// BenchmarkReadEdgeList parses the edge-list text the serve-cold workload
// uploads first: the Apollonian graph of spec apollonian:100000 at seed 1
// (gen stream 0x2545f4914f6cdd1d, as runcfg.Generate draws it), about
// 3.3 MB. make bench-allocs gates its allocs/op, which stay a few dozen
// (chunks of the edge log, the CSR, the scanner) rather than one per
// vertex row.
func BenchmarkReadEdgeList(b *testing.B) {
	g := gen.Apollonian(100000, rand.New(rand.NewPCG(1, 0x2545f4914f6cdd1d)))
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		b.Fatal(err)
	}
	b.Run("apollonian_n1e5", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(text.Len()))
		for range b.N {
			h, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if h.M() != g.M() {
				b.Fatalf("read m=%d, want %d", h.M(), g.M())
			}
		}
	})
}

func BenchmarkGirth_n2000(b *testing.B) {
	g := benchGraph(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Girth(nil)
	}
}

func FuzzRead(f *testing.F) {
	f.Add([]byte("3\n0 1\n1 2\n"))
	f.Add([]byte("0\n"))
	f.Add([]byte("# comment\n2\n0 1\n"))
	f.Add([]byte("x\n"))
	f.Add([]byte("5\n0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		// whatever parses must be internally consistent
		if g.N() < 0 || g.M() < 0 {
			t.Fatal("negative sizes")
		}
		for _, e := range g.Edges() {
			if e[0] < 0 || e[1] >= g.N() || e[0] == e[1] {
				t.Fatalf("bad edge %v", e)
			}
		}
	})
}
