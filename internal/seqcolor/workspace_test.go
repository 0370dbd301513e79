package seqcolor

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// TestWorkspaceReuseMatchesFresh runs DegreeListColor and EffectiveLists
// over a stream of graphs through one Workspace and through fresh calls,
// and checks that both give the same lists, colors and errors every time.
// The stream mixes sizes (so the workspace grows and is reused by smaller
// graphs), precolored vertices (so graphs split into several uncolored
// components), tight and surplus lists, and 3-regular graphs with one
// common palette (the Brooks path); many instances fail, with every error
// kind DegreeListColor returns.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 4))
	var w Workspace
	fails := 0
	for trial := range 300 {
		var g *graph.Graph
		var lists [][]int
		if trial%10 == 9 {
			var err error
			if g, err = gen.RandomRegular(20+2*rng.IntN(60), 3, rng); err != nil {
				t.Fatal(err)
			}
			lists = UniformLists(g.N(), 3)
		} else {
			n := 3 + rng.IntN(60)
			g = gen.GNP(n, 3/float64(n), rng)
			lists = degreeLists(g, rng.IntN(2), g.MaxDegree()+4, rng)
		}
		colors := freshColors(g.N())
		if trial%3 != 0 {
			for v := range colors {
				if rng.IntN(4) == 0 {
					colors[v] = rng.IntN(g.MaxDegree() + 4)
				}
			}
		}
		name := fmt.Sprintf("trial %d (n=%d)", trial, g.N())

		verts := rng.Perm(g.N())[:rng.IntN(g.N()+1)]
		if got, want := w.EffectiveLists(g, colors, Given(lists), verts), new(Workspace).EffectiveLists(g, colors, Given(lists), verts); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: effective lists differ from a fresh call", name)
		}

		got, want := slices.Clone(colors), slices.Clone(colors)
		gotErr, wantErr := w.DegreeListColor(g, got, lists), DegreeListColor(g, want, lists)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, fresh call %v", name, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: colors differ from a fresh call", name)
		}
		// The next call trusts the component mask to be clear, error or not.
		if slices.Contains(w.comp[:cap(w.comp)], true) {
			t.Fatalf("%s: component mask left set", name)
		}
		if wantErr != nil {
			fails++
			continue
		}
		// The precoloring is arbitrary; what DegreeListColor colored must
		// be proper and drawn from the lists.
		for v, c := range colors {
			if c != Uncolored {
				continue
			}
			if !slices.Contains(lists[v], got[v]) {
				t.Fatalf("%s: vertex %d color %d not in its list", name, v, got[v])
			}
			for _, u := range g.Neighbors(v) {
				if got[u] == got[v] {
					t.Fatalf("%s: edge (%d,%d) monochromatic", name, v, u)
				}
			}
		}
	}
	if fails == 0 || fails == 300 {
		t.Fatalf("%d of 300 instances failed; the stream should mix successes and errors", fails)
	}
}
