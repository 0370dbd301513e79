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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := g.Blocks(nil)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := g.Blocks(nil)
		if len(dec.Blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

func BenchmarkGallaiRecognition_n10000(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.IsGallaiForest(nil)
	}
}

func BenchmarkDegeneracy_n10000(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Degeneracy(nil)
		if res.Degeneracy == 0 {
			b.Fatal("degeneracy 0")
		}
	}
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
