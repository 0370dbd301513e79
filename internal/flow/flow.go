// Package flow implements Dinic's maximum-flow algorithm on integer
// capacities. It is the substrate for the exact density computations in
// internal/density (maximum average degree, arboricity, orientations).
package flow

import "math"

// Inf is a capacity larger than any realistic finite demand in this module.
const Inf = math.MaxInt64 / 4

// Network is a flow network under construction/solving. Create with New,
// add arcs with AddArc, then call MaxFlow.
type Network struct {
	n     int
	head  []int32 // head vertex per arc
	next  []int32 // next arc index in adjacency list, -1 terminator
	cap   []int64 // residual capacity per arc
	first []int32 // first arc index per vertex
	level []int32
	iter  []int32
}

// New returns an empty network with n vertices.
func New(n int) *Network {
	first := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	return &Network{n: n, first: first}
}

// N returns the vertex count.
func (f *Network) N() int { return f.n }

// AddArc adds a directed arc u→v with the given capacity and returns its arc
// id (useful for reading residual capacity after solving). A reverse arc of
// capacity 0 is added automatically.
func (f *Network) AddArc(u, v int, capacity int64) int {
	id := len(f.head)
	f.head = append(f.head, int32(v), int32(u))
	f.cap = append(f.cap, capacity, 0)
	f.next = append(f.next, f.first[u], f.first[v])
	f.first[u] = int32(id)
	f.first[v] = int32(id + 1)
	return id
}

// Flow returns the flow pushed through arc id (reverse residual).
func (f *Network) Flow(id int) int64 { return f.cap[id^1] }

func (f *Network) bfs(s, t int) bool {
	if f.level == nil {
		f.level = make([]int32, f.n)
	}
	for i := range f.level {
		f.level[i] = -1
	}
	queue := make([]int32, 0, f.n)
	queue = append(queue, int32(s))
	f.level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for e := f.first[u]; e != -1; e = f.next[e] {
			v := f.head[e]
			if f.cap[e] > 0 && f.level[v] == -1 {
				f.level[v] = f.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return f.level[t] != -1
}

func (f *Network) dfs(u, t int, pushed int64) int64 {
	if u == t {
		return pushed
	}
	for ; f.iter[u] != -1; f.iter[u] = f.next[f.iter[u]] {
		e := f.iter[u]
		v := f.head[e]
		if f.cap[e] <= 0 || f.level[v] != f.level[u]+1 {
			continue
		}
		amt := pushed
		if f.cap[e] < amt {
			amt = f.cap[e]
		}
		got := f.dfs(int(v), t, amt)
		if got > 0 {
			f.cap[e] -= got
			f.cap[e^1] += got
			return got
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow. The network retains the residual
// state afterwards (MinCutSide can then be queried).
func (f *Network) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	if f.iter == nil {
		f.iter = make([]int32, f.n)
	}
	for f.bfs(s, t) {
		copy(f.iter, f.first)
		for {
			got := f.dfs(s, t, Inf)
			if got == 0 {
				break
			}
			total += got
		}
	}
	return total
}

// MinCutSide returns, after MaxFlow, the set of vertices reachable from s in
// the residual network (the s-side of a minimum cut), as a boolean mask.
func (f *Network) MinCutSide(s int) []bool {
	side := make([]bool, f.n)
	queue := []int32{int32(s)}
	side[s] = true
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for e := f.first[u]; e != -1; e = f.next[e] {
			v := f.head[e]
			if f.cap[e] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
