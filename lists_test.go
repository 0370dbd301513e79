package distcolor

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distcolor/internal/gen"
)

// TestCanonicalListsMatchExplicit runs each list-coloring algorithm of the
// Theorem 1.3 family on its smoke graph and on two n = 10⁴ graphs, once on
// its canonical palette (no lists) and once on the same palette given as
// per-vertex lists, and requires the same colors, rounds, phases and
// messages. Coloring.Lists must be nil in the first run and echo the given
// lists in the second.
func TestCanonicalListsMatchExplicit(t *testing.T) {
	type graphCase struct {
		spec string
		opts []Option
	}
	cases := map[string][]graphCase{
		"sparse":     {{"regular:10000,3", []Option{WithD(3)}}, {"apollonian:10000", nil}},
		"planar6":    {{"apollonian:10000", nil}, {"grid:100x100", nil}},
		"delta":      {{"regular:10000,3", nil}, {"grid:100x100", nil}},
		"arboricity": {{"forests:10000,2", nil}, {"grid:100x100", nil}},
		"genus":      {{"klein:100x100", nil}, {"apollonian:10000", nil}},
	}
	for algo, graphs := range cases {
		a, err := Lookup(algo)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graphCase{a.Smoke, nil})
		for _, gc := range graphs {
			rng := rand.New(rand.NewPCG(32, 5))
			g, err := gen.ParseSpec(gc.spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s on %s", algo, gc.spec)
			params, err := a.ResolveParams(explicitParams(gc.opts))
			if err != nil {
				t.Fatal(err)
			}
			k, ok := a.PaletteSize(g, params)
			if !ok {
				t.Fatalf("%s: no palette size", name)
			}
			lists := UniformLists(g.N(), k)
			opts := append(gc.opts, WithSeed(3))
			canon, err := Run(context.Background(), g, algo, opts...)
			if err != nil {
				t.Fatalf("%s, canonical: %v", name, err)
			}
			given, err := Run(context.Background(), g, algo, append(opts, WithLists(lists))...)
			if err != nil {
				t.Fatalf("%s, given: %v", name, err)
			}
			if canon.Lists != nil {
				t.Fatalf("%s: canonical run echoes lists", name)
			}
			if !reflect.DeepEqual(given.Lists, lists) {
				t.Fatalf("%s: given run does not echo its lists", name)
			}
			if canon.Colors == nil || !slices.Equal(canon.Colors, given.Colors) || canon.Rounds != given.Rounds ||
				!slices.Equal(canon.Phases, given.Phases) || canon.Messages != given.Messages {
				t.Fatalf("%s: canonical run (%d rounds, %d messages) differs from the given lists' (%d, %d)",
					name, canon.Rounds, canon.Messages, given.Rounds, given.Messages)
			}
		}
	}
}

// explicitParams returns the parameters opts set.
func explicitParams(opts []Option) map[string]float64 {
	rc := &RunConfig{}
	for _, opt := range opts {
		opt(rc)
	}
	return rc.explicit
}

// TestRunChecksCanonicalPalette registers a list-coloring algorithm whose
// palette is 3 colors but which colors one vertex 3, properly, and echoes
// only the lists it is given. Run must reject its coloring when the caller
// gives no lists, where only the palette [0, 3) can catch it, and accept
// it under caller lists that hold color 3.
func TestRunChecksCanonicalPalette(t *testing.T) {
	const name = "test-palette-overflow"
	MustRegister(&Algorithm{
		Name:        name,
		Lists:       ListsAny,
		PaletteSize: func(*Graph, ParamValues) (int, bool) { return 3, true },
		Run: func(_ context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			colors := make([]int, g.N())
			for v := range colors {
				colors[v] = v % 2
			}
			colors[0] = 3
			return &Coloring{Colors: colors, Lists: rc.Lists, Rounds: 1}, nil
		},
	})
	t.Cleanup(func() {
		regMu.Lock()
		delete(registry, name)
		regMu.Unlock()
	})
	g := gen.Path(6)
	_, err := Run(context.Background(), g, name)
	if err == nil || !strings.Contains(err.Error(), "vertex 0 color 3 not in its list [0 1 2]") {
		t.Fatalf("color 3 of a 3-color palette: got error %v", err)
	}
	if _, err := Run(context.Background(), g, name, WithLists(UniformLists(g.N(), 4))); err != nil {
		t.Fatalf("color 3 under caller lists {0..3}: %v", err)
	}
}
