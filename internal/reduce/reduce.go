// Package reduce implements the classic distributed color-reduction
// subroutines used by the paper and its baselines:
//
//   - Linial's O(Δ²)-coloring in O(log* n) rounds (polynomial set systems
//     over finite fields);
//   - one-class-per-round reduction down to Δ+1 colors;
//   - Cole–Vishkin 3-coloring of rooted forests (shift-down + reduce);
//   - the simple randomized (deg+1)-list-coloring (Question 6.2 remark).
//
// Implementations execute centrally but charge exact LOCAL round counts to
// the ledger (see internal/local for the simulation argument); the
// randomized algorithm is additionally implemented as genuine message-
// passing node programs.
package reduce

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// Uncolored marks an uncolored vertex.
const Uncolored = -1

// smallPrimes returns the first primes ≥ 2 up to limit via a sieve.
func primesUpTo(limit int) []int {
	if limit < 2 {
		return nil
	}
	sieve := make([]bool, limit+1)
	var out []int
	for p := 2; p <= limit; p++ {
		if !sieve[p] {
			out = append(out, p)
			for q := p * p; q <= limit; q += p {
				sieve[q] = true
			}
		}
	}
	return out
}

// linialPrime finds the smallest prime q such that q > d·t where
// t = ⌈log_q k⌉ (the polynomial degree bound +1). Returns q and t.
func linialPrime(k, d int) (int, int) {
	limit := 4 * (d + 2) * (bitsLen(k) + 2)
	for {
		for _, q := range primesUpTo(limit) {
			t := 1
			pow := q
			for pow < k {
				pow *= q
				t++
			}
			if q > d*t {
				return q, t
			}
		}
		limit *= 2
	}
}

func bitsLen(k int) int {
	n := 0
	for k > 0 {
		k >>= 1
		n++
	}
	return n
}

// digitsBaseQ returns the t base-q digits of c (little-endian), i.e. the
// coefficients of vertex c's polynomial.
func digitsBaseQ(c, q, t int) []int {
	out := make([]int, t)
	for i := 0; i < t; i++ {
		out[i] = c % q
		c /= q
	}
	return out
}

func evalPoly(coeffs []int, x, q int) int {
	val := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		val = (val*x + coeffs[i]) % q
	}
	return val
}

// workspace is the pooled vertex-indexed state of one reduction over a
// vertex list: membership stamps (in[v] == epoch iff v is listed), each
// member's current color, its base-q digits (t per vertex, at v·t), and
// the class counters of recolorOrder (one per color above Δ). The arrays
// grow on demand. Only the counters are cleared per call: a stale stamp is
// always older than the next epoch, and colors and digits are only read for
// members. So a call over a small list in a huge graph touches only the
// list's entries and its palette's counters, while its inner loops keep
// direct indexing by vertex ID.
type workspace struct {
	in     []uint32
	epoch  uint32
	color  []int
	digits []int
	count  []int32
}

var workspacePool sync.Pool

// acquireWorkspace takes a workspace sized for n vertices from the pool and
// stamps verts as its members.
func acquireWorkspace(n int, verts []int) *workspace {
	ws, _ := workspacePool.Get().(*workspace)
	if ws == nil {
		ws = &workspace{}
	}
	if ws.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² uses
		clear(ws.in)
		ws.epoch = 0
	}
	ws.epoch++
	if n > len(ws.in) {
		ws.in = make([]uint32, n)
		ws.color = make([]int, n)
	}
	for _, v := range verts {
		ws.in[v] = ws.epoch
	}
	return ws
}

// digitsFor returns the digit table for t digits per vertex of an n-vertex
// graph, growing it when needed.
func (ws *workspace) digitsFor(n, t int) []int {
	if n*t > len(ws.digits) {
		ws.digits = make([]int, n*t)
	}
	return ws.digits
}

// maxDegreeIn returns the maximum degree of the graph induced by the
// workspace's members, for the member list verts.
func (ws *workspace) maxDegreeIn(g *graph.Graph, verts []int) int {
	in, epoch := ws.in, ws.epoch
	d := 0
	for _, v := range verts {
		dv := 0
		for _, w := range g.Neighbors(v) {
			if in[w] == epoch {
				dv++
			}
		}
		d = max(d, dv)
	}
	return d
}

// allIfNil returns verts, or every vertex 0..n-1 when verts is nil.
func allIfNil(verts []int, n int) []int {
	if verts != nil {
		return verts
	}
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	return all
}

// LinialColor computes an O(Δ²·log²Δ)-ish coloring of the graph induced by
// verts (nil = all vertices) in O(log* n) LOCAL rounds: starting from the
// IDs (palette n), each iteration maps a palette of size k to q² where q is
// the Linial prime for (k, Δ). It stops when the palette stops shrinking
// and returns the coloring, aligned with verts (colors[i] is verts[i]'s),
// along with the final palette size. Colors lie in [0, palette). Once the
// pooled workspace has grown to the graph, work and allocation are
// proportional to the list and its edges, not to n.
func LinialColor(nw *local.Network, ledger *local.Ledger, phase string, verts []int) ([]int, int) {
	g := nw.G
	n := g.N()
	verts = allIfNil(verts, n)
	ws := acquireWorkspace(n, verts)
	defer workspacePool.Put(ws)
	in, epoch, col := ws.in, ws.epoch, ws.color
	out := make([]int, len(verts))
	d := ws.maxDegreeIn(g, verts)
	if d == 0 {
		// no edges: one color suffices, zero rounds
		return out, 1
	}
	for _, v := range verts {
		col[v] = nw.ID[v] - 1 // palette [0, n)
	}
	k := n
	for {
		q, t := linialPrime(k, d)
		if q*q >= k {
			for i, v := range verts {
				out[i] = col[v]
			}
			return out, k
		}
		// Precompute every member's polynomial coefficients (its base-q
		// digits) once per iteration, so the O(deg·q) candidate loop below
		// does no per-neighbor allocation.
		digits := ws.digitsFor(n, t)
		for _, v := range verts {
			c := col[v]
			for i := 0; i < t; i++ {
				digits[v*t+i] = c % q
				c /= q
			}
		}
		// New colors go to out (one per list position) and are written back
		// only after the sweep: every vertex picks from its neighbors' old
		// colors.
		for i, v := range verts {
			pv := digits[v*t : (v+1)*t]
			x := -1
			for cand := 0; cand < q; cand++ {
				ev := evalPoly(pv, cand, q)
				ok := true
				for _, w := range g.Neighbors(v) {
					if in[w] != epoch {
						continue
					}
					if col[w] != col[v] && evalPoly(digits[int(w)*t:(int(w)+1)*t], cand, q) == ev {
						ok = false
						break
					}
				}
				if ok {
					x = cand
					break
				}
			}
			if x < 0 {
				panic("reduce: Linial selection failed — prime too small (internal bug)")
			}
			out[i] = x*q + evalPoly(pv, x, q)
		}
		for i, v := range verts {
			col[v] = out[i]
		}
		k = q * q
		if ledger != nil {
			ledger.Charge(phase, 1)
		}
	}
}

// ReduceToMaxDegPlusOne takes a proper coloring with palette [0, k) of the
// graph induced by verts (nil = all vertices), aligned with verts, and
// reduces it to the palette [0, Δ+1] by recoloring one color class per
// round (classes are independent sets, so all members recolor
// simultaneously). Charges max(0, k-(Δ+1)) rounds. Every vertex ends with a
// color in [0, deg(v)] ⊆ [0, Δ]; the result is aligned with verts.
func ReduceToMaxDegPlusOne(nw *local.Network, ledger *local.Ledger, phase string,
	verts []int, colors []int, k int) []int {
	g := nw.G
	n := g.N()
	verts = allIfNil(verts, n)
	ws := acquireWorkspace(n, verts)
	defer workspacePool.Put(ws)
	in, epoch, col := ws.in, ws.epoch, ws.color
	d := ws.maxDegreeIn(g, verts)
	out := make([]int, len(verts))
	copy(out, colors)
	for i, v := range verts {
		col[v] = colors[i]
	}
	lo := d + 1
	if k <= lo {
		return out
	}
	order := ws.recolorOrder(colors, lo, k)
	used := graph.AcquireBitset(d + 1)
	defer graph.ReleaseBitset(used)
	for _, i := range order {
		v := verts[i]
		used.Reset(d + 1)
		for _, w := range g.Neighbors(v) {
			if in[w] == epoch && col[w] >= 0 && col[w] <= d {
				used.Set(col[w])
			}
		}
		picked := used.FirstZero()
		if picked > d {
			panic("reduce: no free color ≤ Δ (internal bug)")
		}
		col[v] = picked
		out[i] = picked
	}
	if ledger != nil {
		ledger.Charge(phase, k-lo)
	}
	return out
}

// recolorOrder returns the positions i with colors[i] in [lo, k), by
// descending color and then ascending position: the order in which the
// class-per-round reduction recolors them. A vertex only changes color when
// its own class is processed (to a color < lo), and a class is an
// independent set, so visiting each class in any order recolors it exactly
// as a simultaneous round would. It is one counting sort whose k-lo+1
// counters live in the pooled workspace, so a call allocates only the order
// itself, proportional to the list.
func (ws *workspace) recolorOrder(colors []int, lo, k int) []int32 {
	if k-lo+1 > len(ws.count) {
		ws.count = make([]int32, k-lo+1)
	}
	above := ws.count[:k-lo+1] // above[k-1-c]: positions of classes > c
	clear(above)
	for _, c := range colors {
		if c >= lo && c < k {
			above[k-c]++
		}
	}
	for j := 1; j < len(above); j++ {
		above[j] += above[j-1]
	}
	order := make([]int32, above[k-lo])
	for i, c := range colors {
		if c >= lo && c < k {
			order[above[k-1-c]] = int32(i)
			above[k-1-c]++
		}
	}
	return order
}

// DegPlusOne produces a proper coloring of the graph induced by verts (nil
// = all vertices), aligned with verts, with colors in [0, Δ] (at most Δ+1
// colors) in O(log* n + Δ² log Δ) LOCAL rounds: Linial reduction followed
// by class-by-class reduction.
func DegPlusOne(nw *local.Network, ledger *local.Ledger, phase string, verts []int) []int {
	verts = allIfNil(verts, nw.G.N())
	colors, k := LinialColor(nw, ledger, phase+"/linial", verts)
	return ReduceToMaxDegPlusOne(nw, ledger, phase+"/reduce", verts, colors, k)
}

// VerifyMaskColoring checks properness over the masked graph.
func VerifyMaskColoring(g *graph.Graph, mask []bool, colors []int) error {
	for v := 0; v < g.N(); v++ {
		if mask != nil && !mask[v] {
			continue
		}
		if colors[v] < 0 {
			return fmt.Errorf("reduce: vertex %d uncolored", v)
		}
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if mask != nil && !mask[w] {
				continue
			}
			if colors[w] == colors[v] {
				return fmt.Errorf("reduce: edge (%d,%d) monochromatic", v, w)
			}
		}
	}
	return nil
}

// RandomizedListColor runs the simple randomized (deg+1)-list-coloring as
// genuine message-passing node programs: every uncolored node proposes a
// uniform color from its remaining list each round and keeps it if no
// neighbor proposed or holds the same color; finalized colors are removed
// from neighbors' lists. Requires |lists[v]| ≥ deg(v)+1. Completes in
// O(log n) rounds with high probability; maxRounds bounds the run.
func RandomizedListColor(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	lists [][]int, seed uint64, maxRounds int) ([]int, error) {
	g := nw.G
	for v := 0; v < g.N(); v++ {
		if len(lists[v]) < g.Degree(v)+1 {
			return nil, fmt.Errorf("reduce: vertex %d list %d < deg+1=%d", v, len(lists[v]), g.Degree(v)+1)
		}
	}
	outs, err := local.RunSync(ctx, nw, ledger, phase, maxRounds, func(v int) local.Program {
		return &randColorProgram{list: append([]int(nil), lists[v]...), seed: seed}
	})
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	for v, o := range outs {
		c, ok := o.(int)
		if !ok || c == Uncolored {
			return nil, fmt.Errorf("reduce: node %d failed to color", v)
		}
		colors[v] = c
	}
	return colors, nil
}

type randColorProgram struct {
	info  local.NodeInfo
	list  []int
	rng   *rand.Rand
	seed  uint64
	color int
	cand  int
}

type randColorMsg struct {
	candidate int
	final     bool
}

func (p *randColorProgram) Init(info local.NodeInfo) {
	p.info = info
	p.rng = rand.New(rand.NewPCG(p.seed, uint64(info.ID)))
	p.color = Uncolored
	p.cand = Uncolored
}

func (p *randColorProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	// Process last round's proposals/finalizations.
	conflict := false
	for _, in := range inbox {
		m := in.Msg.(randColorMsg)
		if m.final {
			// remove neighbor's final color from our list
			for i, c := range p.list {
				if c == m.candidate {
					p.list = append(p.list[:i], p.list[i+1:]...)
					break
				}
			}
			if p.cand == m.candidate {
				conflict = true
			}
			continue
		}
		if m.candidate != Uncolored && m.candidate == p.cand {
			conflict = true
		}
	}
	if p.color != Uncolored {
		return nil, true // already announced final color last round
	}
	if p.cand != Uncolored && !conflict {
		// our previous proposal survived: finalize and announce
		p.color = p.cand
		return []local.Outbound{{Port: local.Broadcast, Msg: randColorMsg{candidate: p.color, final: true}}}, false
	}
	// propose anew
	if len(p.list) == 0 {
		// cannot happen with deg+1 lists
		panic("reduce: randomized coloring ran out of colors")
	}
	p.cand = p.list[p.rng.IntN(len(p.list))]
	return []local.Outbound{{Port: local.Broadcast, Msg: randColorMsg{candidate: p.cand}}}, false
}

func (p *randColorProgram) Output() any { return p.color }
