package seqcolor

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"distcolor/internal/graph"
)

// instance is a random (graph, tight-degree-lists) pair for testing/quick.
type instance struct {
	G     *graph.Graph
	Lists [][]int
}

func (instance) Generate(r *rand.Rand, size int) reflect.Value {
	n := 3 + r.Intn(10)
	b := graph.NewBuilder(n)
	p := 0.2 + r.Float64()*0.3
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdgeOK(i, j)
			}
		}
	}
	g := b.Graph()
	lists := make([][]int, n)
	palette := n + 4
	for v := 0; v < n; v++ {
		perm := r.Perm(palette)
		size := g.Degree(v)
		if size < 1 {
			size = 1
		}
		lists[v] = perm[:size]
	}
	return reflect.ValueOf(instance{G: g, Lists: lists})
}

// TestQuickTheorem11Dichotomy: DegreeListColor succeeds on every component
// that is non-Gallai or has surplus, and any success is a valid coloring.
// Its only legitimate failure mode is ErrGallaiTight (and then an exact
// solver on small instances confirms the component really is delicate:
// either infeasible, or feasible only through choices the heuristic may
// miss on Gallai trees, which the theorem does not promise).
func TestQuickTheorem11Dichotomy(t *testing.T) {
	f := func(in instance) bool {
		colors := make([]int, in.G.N())
		for i := range colors {
			colors[i] = Uncolored
		}
		err := DegreeListColor(in.G, colors, in.Lists)
		if err == nil {
			return Verify(in.G, colors, Given(in.Lists)) == nil
		}
		var gte *GallaiTightError
		if !errors.As(err, &gte) {
			return false
		}
		// The failure must originate in a component that is a Gallai tree
		// (e.g. a K2 with identical singleton lists) — check exactly that
		// component, which the error now carries.
		mask := make([]bool, in.G.N())
		var verts []int32
		for _, v := range gte.Component {
			mask[v] = true
			verts = append(verts, int32(v))
		}
		if ok, _ := in.G.IsGallaiForest(verts, mask); !ok {
			return false
		}
		// And when the identical-lists certificate is claimed, brute force
		// must agree the component is infeasible.
		if gte.Certified && in.G.N() <= 9 {
			sub, orig, err2 := in.G.Induced(gte.Component)
			if err2 != nil {
				return false
			}
			subLists := make([][]int, sub.N())
			for i, v := range orig {
				subLists[i] = in.Lists[v]
			}
			if _, feasible := ListColorableBrute(sub, subLists); feasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickSurplusAlwaysSucceeds: granting every vertex one extra color
// makes every instance (even Gallai trees) colorable.
func TestQuickSurplusAlwaysSucceeds(t *testing.T) {
	f := func(in instance) bool {
		lists := make([][]int, in.G.N())
		for v := range lists {
			lists[v] = append(append([]int(nil), in.Lists[v]...), 10_000+v%3)
		}
		colors := make([]int, in.G.N())
		for i := range colors {
			colors[i] = Uncolored
		}
		if err := DegreeListColor(in.G, colors, lists); err != nil {
			return false
		}
		return Verify(in.G, colors, Given(lists)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickBruteAgreesOnFeasibility: on feasible instances where
// DegreeListColor succeeds, the solution matches brute-force feasibility;
// it never "succeeds" on infeasible input (Verify would fail).
func TestQuickBruteAgreesOnFeasibility(t *testing.T) {
	f := func(in instance) bool {
		if in.G.N() > 9 {
			return true // keep brute force cheap
		}
		colors := make([]int, in.G.N())
		for i := range colors {
			colors[i] = Uncolored
		}
		err := DegreeListColor(in.G, colors, in.Lists)
		_, feasible := ListColorableBrute(in.G, in.Lists)
		if err == nil {
			return feasible && Verify(in.G, colors, Given(in.Lists)) == nil
		}
		return true // failures allowed only per the dichotomy test above
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
