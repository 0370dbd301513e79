package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomGraphValue makes *Graph usable with testing/quick: quick calls
// Generate with the standard library's *math/rand.Rand.
type randomGraphValue struct {
	G *Graph
}

func (randomGraphValue) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(14)
	p := 0.05 + r.Float64()*0.3
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdgeOK(i, j)
			}
		}
	}
	return reflect.ValueOf(randomGraphValue{G: b.Graph()})
}

func TestQuickBlockEdgePartition(t *testing.T) {
	f := func(gv randomGraphValue) bool {
		g := gv.G
		dec := g.Blocks(nil)
		count := 0
		seen := map[[2]int]bool{}
		for _, blk := range dec.Blocks {
			for _, e := range blk.Edges {
				k := edgeKey(e[0], e[1])
				if seen[k] {
					return false
				}
				seen[k] = true
				count++
			}
		}
		return count == g.M()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickDegeneracyVsMaxDegree(t *testing.T) {
	// degeneracy ≤ Δ always; and any subgraph has a vertex of degree ≤
	// degeneracy (checked via the order property).
	f := func(gv randomGraphValue) bool {
		g := gv.G
		res := g.Degeneracy()
		if res.Degeneracy > g.MaxDegree() {
			return false
		}
		for _, v := range res.Order {
			later := 0
			for _, w := range g.Neighbors(v) {
				if res.Pos[w] > res.Pos[v] {
					later++
				}
			}
			if later > res.Degeneracy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickGallaiInducedClosure(t *testing.T) {
	// Any connected induced subgraph of a Gallai forest is a Gallai forest
	// (the closure property Section 4 relies on).
	f := func(gv randomGraphValue, mask16 uint16) bool {
		g := gv.G
		if !gallai(g) {
			return true // property only about Gallai graphs
		}
		mask := make([]bool, g.N())
		for v := 0; v < g.N(); v++ {
			mask[v] = mask16&(1<<(v%16)) != 0
		}
		return gallaiIn(g, mask)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(gv randomGraphValue) bool {
		g := gv.G
		if g.N() < 3 {
			return true
		}
		a := g.BFS([]int{0}, nil, -1)
		b := g.BFS([]int{1}, nil, -1)
		for v := 0; v < g.N(); v++ {
			if a.Dist[v] == -1 || b.Dist[v] == -1 || a.Dist[1] == -1 {
				continue
			}
			// d(0,v) ≤ d(0,1) + d(1,v)
			if a.Dist[v] > a.Dist[1]+b.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickGirthAtLeastThree(t *testing.T) {
	f := func(gv randomGraphValue) bool {
		g := gv.G
		girth := g.Girth(nil)
		if girth == -1 {
			// forest: m ≤ n − components
			return g.M() < g.N()
		}
		return girth >= 3 && girth <= g.N()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickIORoundTrip(t *testing.T) {
	f := func(gv randomGraphValue) bool {
		var buf bytes.Buffer
		if _, err := gv.G.WriteTo(&buf); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g2.N() != gv.G.N() || g2.M() != gv.G.M() {
			return false
		}
		for _, e := range gv.G.Edges() {
			if !g2.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("x\n")); err == nil {
		t.Error("non-numeric count accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("3\n0 0\n")); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("3\n0 1 2\n")); err == nil {
		t.Error("3-field line accepted")
	}
	g, err := ReadEdgeList(bytes.NewBufferString("# comment\n3\n\n0 1\n"))
	if err != nil || g.M() != 1 {
		t.Errorf("comments/blank lines mishandled: %v", err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 120}
}
