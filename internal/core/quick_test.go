package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"distcolor/internal/density"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// sparseInstance is a random bounded-mad instance for end-to-end
// Theorem 1.3 property testing: a union of up to 3 random forests (mad ≤ 6)
// plus a random d ≥ max(3, ⌈mad⌉).
type sparseInstance struct {
	G *graph.Graph
	D int
}

func (sparseInstance) Generate(r *rand.Rand, size int) reflect.Value {
	n := 6 + r.Intn(40)
	a := 1 + r.Intn(3)
	b := graph.NewBuilder(n)
	for t := 0; t < a; t++ {
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdgeOK(perm[i], perm[r.Intn(i)])
		}
	}
	g := b.Graph()
	d := 2 * a
	if d < 3 {
		d = 3
	}
	d += r.Intn(2)
	return reflect.ValueOf(sparseInstance{G: g, D: d})
}

// TestQuickTheorem13EndToEnd: on any mad ≤ d instance without K_{d+1}, the
// algorithm must produce a verified list-coloring (or a genuine clique).
func TestQuickTheorem13EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end property sweep")
	}
	f := func(in sparseInstance, seed uint16) bool {
		// certify the hypothesis exactly
		if !density.MadAtMost(in.G, in.D) {
			return true // generator slack: skip non-conforming samples
		}
		lists := make([][]int, in.G.N())
		lrng := rand.New(rand.NewSource(int64(seed)))
		for v := range lists {
			perm := lrng.Perm(2*in.D + 3)
			lists[v] = perm[:in.D]
		}
		nw := local.NewNetwork(in.G)
		res, err := Run(context.Background(), nw, Config{D: in.D, Lists: seqcolor.Given(lists)})
		if err != nil {
			return false
		}
		if res.Clique != nil {
			return len(res.Clique) == in.D+1 && in.G.IsClique(res.Clique)
		}
		return seqcolor.Verify(in.G, res.Colors, seqcolor.Given(lists)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickLemma31Bound: every iteration's happy set respects the paper's
// lower bound (with the default ball constant).
func TestQuickLemma31Bound(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end property sweep")
	}
	f := func(in sparseInstance) bool {
		if !density.MadAtMost(in.G, in.D) || in.G.FindCliqueDPlus1(in.D) != nil {
			return true
		}
		nw := local.NewNetwork(in.G)
		res, err := Run(context.Background(), nw, Config{D: in.D})
		if err != nil {
			return false
		}
		bound := 1.0 / float64((3*in.D)*(3*in.D)*(3*in.D))
		for _, it := range res.Iterations {
			if float64(it.Happy) < bound*float64(it.Alive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
