package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"distcolor/internal/graph"
)

// The machine probe. The reference machine is a small VM whose neighbours
// share its memory system, and how fast it runs swings by half within a
// minute: a 20 s run can read every op 60% slower than the run before it.
// So the harness runs a fixed workload of its own — the probe — between
// measured ops, when nothing else of the benchmark runs, and reports each
// measured time scaled to reference speed:
//
//	ref = wall × probe.ref / (mean of the probe times just before and after)
//
// The probe traverses the workload's own graph, copied into the harness's
// arrays: breadth-first searches on fresh slices that also copy neighbour
// lists, the kind of work the code under test does, but none of its code,
// so a change to distcolor moves the ops and not the probe. What the
// neighbours slow is memory, so how much a piece of code slows depends on
// its working set; the graph's own size and shape give the probe the same.

// probeVisits is the number of vertex visits in one probe, over as many
// traversals of the graph as that takes.
const probeVisits = 1 << 19

// probe is a copy of a workload's graph in CSR form and the probe's time
// on it in a quiet spell of the reference machine, which fixes the scale of
// the workload's reference-speed times.
type probe struct {
	off, adj []int32
	passes   int
	ref      time.Duration
}

func newProbe(g *graph.Graph, ref time.Duration) *probe {
	n := g.N()
	p := &probe{off: make([]int32, n+1), passes: max(1, probeVisits/n), ref: ref}
	for u := range n {
		for _, v := range g.Neighbors(u) {
			p.adj = append(p.adj, int32(v))
		}
		p.off[u+1] = int32(len(p.adj))
	}
	return p
}

// probeSink keeps the traversals from being optimised away.
var probeSink int

// run collects the heap, so that the probe and the op after it start from
// the same state every time, and returns the time of one probe. Its CPU
// samples carry the bench=probe label.
func (p *probe) run() time.Duration {
	runtime.GC()
	var d time.Duration
	pprof.Do(context.Background(), pprof.Labels(benchLabelKey, probeLabelValue), func(context.Context) {
		n := len(p.off) - 1
		t0 := time.Now()
		for pass := range p.passes {
			probeSink += p.traverse(int32(pass * n / p.passes))
		}
		d = time.Since(t0)
	})
	return d
}

// traverse is a breadth-first search from src on fresh slices that also
// copies every fourth vertex's neighbour list.
func (p *probe) traverse(src int32) int {
	n := len(p.off) - 1
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	var lists [][]int32
	dist[src] = 0
	queue = append(queue, src)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		nb := p.adj[p.off[u]:p.off[u+1]]
		if h%4 == 0 {
			lists = append(lists, append([]int32(nil), nb...))
		}
		for _, v := range nb {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return len(lists) + int(dist[queue[len(queue)-1]])
}

// scale turns a wall time measured between two probes of before and after
// into a reference-speed time: multiply by it.
func (p *probe) scale(before, after time.Duration) float64 {
	return float64(2*p.ref) / float64(before+after)
}
