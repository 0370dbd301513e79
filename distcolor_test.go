package distcolor

import (
	"context"
	"testing"

	"math/rand/v2"

	"distcolor/internal/gen"
)

func TestFacadePlanar6(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.Apollonian(150, rng)
	col, err := Run(context.Background(), g, "planar6", WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, col.Colors, nil); err != nil {
		t.Fatal(err)
	}
	if NumColors(col.Colors) > 6 {
		t.Errorf("used %d colors", NumColors(col.Colors))
	}
	if col.Rounds <= 0 || len(col.Phases) == 0 {
		t.Error("round accounting missing")
	}
}

func TestFacadeSparseListColorCliqueOutcome(t *testing.T) {
	g := gen.Complete(4)
	col, err := Run(context.Background(), g, "sparse", WithD(3))
	if err != nil {
		t.Fatal(err)
	}
	if col.Clique == nil || col.Colors != nil {
		t.Errorf("expected the clique outcome, got %v", col)
	}
	if col.String() == "" {
		t.Error("String empty")
	}
}

func TestFacadeBaselines(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := gen.Apollonian(120, rng)
	gpsCol, err := Run(context.Background(), g, "gps7", WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, gpsCol.Colors, nil); err != nil {
		t.Fatal(err)
	}
	if NumColors(gpsCol.Colors) > 7 {
		t.Error("GPS used more than 7 colors")
	}

	fu := gen.ForestUnion(120, 2, rng)
	beCol, err := Run(context.Background(), fu, "be", WithSeed(3), WithArboricity(2), WithEps(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(fu, beCol.Colors, nil); err != nil {
		t.Fatal(err)
	}
	abbeCol, err := Run(context.Background(), fu, "arboricity", WithSeed(3), WithArboricity(2))
	if err != nil {
		t.Fatal(err)
	}
	if NumColors(abbeCol.Colors) > 4 {
		t.Errorf("Corollary 1.4 exceeded 2a colors: %d", NumColors(abbeCol.Colors))
	}
}

func TestFacadeBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Graph()
	col, err := Run(context.Background(), g, "sparse", WithD(3), WithLists(UniformLists(4, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, col.Colors, UniformLists(4, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHeawood(t *testing.T) {
	if HeawoodNumber(1) != 6 {
		t.Error("H(1) != 6")
	}
}
