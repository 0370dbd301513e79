package graph_test

import (
	"bytes"
	"io"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// TestWriteToMatchesReference holds the CSR-walking WriteTo to the old
// Edges()+fmt writer, byte for byte and in the count it returns.
func TestWriteToMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	graphs := map[string]*graph.Graph{
		"empty":          new(graph.Graph),
		"no vertices":    graph.MustNew(0, nil),
		"one vertex":     graph.MustNew(1, nil),
		"apollonian 1e4": gen.Apollonian(10000, rng),
	}
	for i := range 5 {
		graphs["random "+string(rune('a'+i))] = gen.GNP(50+rng.IntN(2000), 0.01, rng)
	}
	for name, g := range graphs {
		var got, want bytes.Buffer
		n, err := g.WriteTo(&got)
		wn, werr := graph.RefWriteTo(g, &want)
		if err != nil || werr != nil || n != wn || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: wrote %d bytes (%v), oracle %d (%v); equal: %v",
				name, n, err, wn, werr, bytes.Equal(got.Bytes(), want.Bytes()))
		}
	}
}

// TestWriteToAllocatesLittle checks that writing an n=1e5 graph allocates
// only its buffer, not an edge list or a boxed integer per edge.
func TestWriteToAllocatesLittle(t *testing.T) {
	g := gen.Apollonian(100000, rand.New(rand.NewPCG(1, 0x2545f4914f6cdd1d)))
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := g.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 10 {
		t.Fatalf("WriteTo made %.0f allocations", allocs)
	}
}
