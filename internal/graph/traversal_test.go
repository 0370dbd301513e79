package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// bfsView is everything one Run exposes: the visit order, and Dist and
// Parent at every vertex of the graph.
type bfsView struct {
	order        []int32
	dist, parent []int
}

func viewOf(t *Traversal, g *Graph) bfsView {
	v := bfsView{order: slices.Clone(t.Order())}
	for u := 0; u < g.N(); u++ {
		v.dist = append(v.dist, t.Dist(u))
		v.parent = append(v.parent, t.Parent(u))
	}
	return v
}

// freshView runs one search on a traversal nothing else has touched.
func freshView(g *Graph, sources []int, mask []bool, radius int) bfsView {
	t := &Traversal{}
	t.bind(g)
	t.Run(sources, mask, radius)
	return viewOf(t, g)
}

func sameView(a, b bfsView) bool {
	return slices.Equal(a.order, b.order) && slices.Equal(a.dist, b.dist) && slices.Equal(a.parent, b.parent)
}

// randomSearch draws sources, an optional mask and a radius for g.
func randomSearch(rng *rand.Rand, g *Graph) (sources []int, mask []bool, radius int) {
	n := g.N()
	for k := 1 + rng.IntN(3); k > 0; k-- {
		sources = append(sources, rng.IntN(n))
	}
	if rng.IntN(2) == 0 {
		mask = make([]bool, n)
		for v := range mask {
			mask[v] = rng.Float64() < 0.8
		}
	}
	return sources, mask, rng.IntN(6) - 1
}

// TestTraversalRebindMatchesFresh binds one traversal to graphs of size
// large → small → large (and back) and checks that every search on it gives
// exactly the order, distances and parents of a fresh traversal.
func TestTraversalRebindMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 6))
	large1 := randomGraph(rng, 1500, 4.0/1500)
	small := cycle(9)
	large2 := randomGraph(rng, 2500, 3.0/2500)
	tr := &Traversal{}
	for step, g := range []*Graph{large1, small, large2, small, large1} {
		tr.bind(g)
		for k := 0; k < 8; k++ {
			sources, mask, radius := randomSearch(rng, g)
			tr.Run(sources, mask, radius)
			if !sameView(viewOf(tr, g), freshView(g, sources, mask, radius)) {
				t.Fatalf("step %d (n=%d) search %d: rebound traversal differs from a fresh one", step, g.N(), k)
			}
		}
	}
}

// TestTraversalEpochWrapAfterRebind puts the epoch at the wrap point right
// before a rebind, so the stamp clearing runs on arrays sized for another
// graph, and checks every following search against a fresh traversal. The
// large graph carries patches stamped with the small epochs the searches
// after the wrap reuse, so a stamp the wrap fails to clear shows up as a
// vertex wrongly taken as already reached.
func TestTraversalEpochWrapAfterRebind(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 7))
	large := randomGraph(rng, 1200, 4.0/1200)
	small := path(11)
	for _, start := range []uint32{^uint32(0), ^uint32(0) - 1} {
		tr := &Traversal{}
		tr.bind(large)
		for e := 0; e < 40; e++ {
			tr.Run([]int{rng.IntN(large.N())}, nil, 3)
		}
		tr.epoch = start
		for step, g := range []*Graph{small, small, large, large, small, large, large, large} {
			tr.bind(g)
			sources, mask, radius := randomSearch(rng, g)
			tr.Run(sources, mask, radius)
			if !sameView(viewOf(tr, g), freshView(g, sources, mask, radius)) {
				t.Fatalf("start epoch %d, step %d (n=%d): traversal differs from a fresh one", start, step, g.N())
			}
		}
	}
}

// TestTraversalPoolConcurrent acquires pooled traversals for graphs of
// different sizes from many goroutines at once (run it under -race): every
// search must match the fresh-traversal answer for its own graph. A
// released traversal must not keep its graph alive.
func TestTraversalPoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 8))
	type job struct {
		g       *Graph
		sources []int
		mask    []bool
		radius  int
		want    bfsView
	}
	var jobs []job
	for _, n := range []int{7, 60, 900, 2000} {
		g := randomGraph(rng, n, 3.0/float64(n))
		for k := 0; k < 3; k++ {
			sources, mask, radius := randomSearch(rng, g)
			jobs = append(jobs, job{g, sources, mask, radius, freshView(g, sources, mask, radius)})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := jobs[(w*7+i)%len(jobs)]
				tr := j.g.AcquireTraversal()
				tr.Run(j.sources, j.mask, j.radius)
				ok := sameView(viewOf(tr, j.g), j.want)
				j.g.ReleaseTraversal(tr)
				if !ok {
					errs <- fmt.Errorf("worker %d search %d (n=%d): pooled traversal differs from a fresh one", w, i, j.g.N())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	g := jobs[0].g
	tr := g.AcquireTraversal()
	g.ReleaseTraversal(tr)
	if tr.g != nil {
		t.Fatal("a released traversal still holds its graph")
	}
}
