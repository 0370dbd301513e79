// Package reduce implements the classic distributed color-reduction
// subroutines used by the paper and its baselines:
//
//   - Linial's O(Δ²)-coloring in O(log* n) rounds (polynomial set systems
//     over finite fields; a color's polynomial is evaluated straight from
//     its base-q digits with multiply-shift arithmetic, no digit table and
//     no division; each sweep settles x = 0, where most vertices stop, by
//     comparing colors mod q, and runs the general step only on a clash);
//   - one-class-per-round reduction down to Δ+1 colors, where a vertex
//     marks its neighbors' colors below 64 in one word and picks its
//     lowest clear bit (only when Δ ≥ 64 do higher colors go to a bitset);
//   - Cole–Vishkin 3-coloring of rooted forests (shift-down + reduce);
//   - the simple randomized (deg+1)-list-coloring (Question 6.2 remark).
//
// Implementations execute centrally but charge exact LOCAL round counts to
// the ledger (see internal/local for the simulation argument); the
// randomized algorithm is additionally implemented as genuine message-
// passing node programs, and so is Linial's step, in the tests, as the
// oracle for the central sweep.
package reduce

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// Uncolored marks an uncolored vertex.
const Uncolored = -1

// linialPrime finds the smallest prime q such that q > d·t where
// t = ⌈log_q k⌉ (the polynomial degree bound +1). Returns q and t. It scans
// q upward with trial division, so it allocates nothing.
func linialPrime(k, d int) (int, int) {
	for q := 2; ; q++ {
		if !isPrime(q) {
			continue
		}
		t := 1
		for pow := q; pow < k; pow *= q {
			t++
		}
		if q > d*t {
			return q, t
		}
	}
}

// isPrime reports whether q ≥ 2 is prime, by trial division.
func isPrime(q int) bool {
	for p := 2; p*p <= q; p++ {
		if q%p == 0 {
			return false
		}
	}
	return true
}

// field is arithmetic in GF(q) with division and remainder by q done as
// multiply-shifts (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019): with m = ⌊(2⁶⁴-1)/q⌋+1, c/q is the high word of
// m·c and c mod q the high word of (m·c mod 2⁶⁴)·q, exact for every
// c < 2³². Linial iterates only while q² < k ≤ n < 2³¹, so colors (below
// k) and each partial sum reduced after adding one product of residues
// (below q²) stay in range.
type field struct{ q, m uint64 }

func newField(q int) field { return field{uint64(q), ^uint64(0)/uint64(q) + 1} }

// divmod returns c/q and c mod q for c < 2³².
func (f field) divmod(c uint64) (uint64, uint64) {
	quo, lo := bits.Mul64(f.m, c)
	rem, _ := bits.Mul64(lo, f.q)
	return quo, rem
}

// powers fills xs with x⁰, x¹, … mod q and returns it, cut to xs[:1] at
// x = 0, where every higher power vanishes.
func (f field) powers(xs []uint64, x uint64) []uint64 {
	if x == 0 {
		xs = xs[:1]
	}
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		_, xs[i] = f.divmod(xs[i-1] * x)
	}
	return xs
}

// eval returns p_c(x) for the powers xs of x: the polynomial whose
// coefficients are c's base-q digits, split off on the fly. At x = 0 it is
// c mod q. The sum is reduced after every term, never left to grow to t·q².
func (f field) eval(c uint64, xs []uint64) uint64 {
	c, val := f.divmod(c)
	for _, p := range xs[1:] {
		var dig uint64
		c, dig = f.divmod(c)
		_, val = f.divmod(val + dig*p)
	}
	return val
}

// linialStep is one Linial step of a vertex with color own whose neighbors
// hold the colors nbrs, over the field of the step's prime q, t digits per
// color: it picks the first x ∈ F_q with p_own(x) ≠ p_u(x) for every
// neighbor color u ≠ own, trying x = from, from+1, … (at x = 0, p(x) is
// the color mod q), and returns the new color x·q + p_own(x). The
// message-passing program calls it from 0; LinialColor's sweep settles
// x = 0 itself and calls it from 1 for a vertex that clashes there.
func linialStep(own int, nbrs []int, f field, t int, from uint64) int {
	var buf [32]uint64 // t ≤ 31: q ≥ 2 and q^(t-1) < k < 2³¹
	for x := from; x < f.q; x++ {
		xs := f.powers(buf[:t], x)
		ev := f.eval(uint64(own), xs)
		ok := true
		for _, u := range nbrs {
			if u != own && f.eval(uint64(u), xs) == ev {
				ok = false
				break
			}
		}
		if ok {
			return int(x*f.q + ev)
		}
	}
	panic("reduce: Linial selection failed — prime too small (internal bug)")
}

// member is a workspace's per-vertex record: the membership stamp and the
// current color side by side, so a neighbor costs one 8-byte read.
type member struct {
	in    uint32
	color int32
}

// Workspace is the caller-held, vertex-indexed state of the reductions over
// a vertex list: one member record per vertex (rec[v].in == epoch iff v is
// listed, rec[v].color its current color), the class counters and order of
// recolorOrder, the neighbor-color buffer of a Linial sweep, the output
// classes and the class reduction's palette bitset. The zero value is ready
// to use; the arrays grow on demand, the records to the largest graph seen.
// Only the counters are cleared per call: a stale stamp is always older
// than the next epoch, and colors are only read for members. So a call over
// a small list in a huge graph touches only the list's entries and its
// palette's counters, while its inner loops keep direct indexing by vertex
// ID. A Workspace serves one call at a time, and the classes a method
// returns are valid until the workspace's next call.
type Workspace struct {
	rec   []member
	epoch uint32
	count []int32
	order []int32
	nbrs  []int
	out   []int
	used  graph.Bitset
}

// begin stamps verts as the workspace's members for g and returns
// Δ(G[verts]).
func (ws *Workspace) begin(g *graph.Graph, verts []int) int {
	if ws.epoch == ^uint32(0) { // epoch wrap: clear stamps once every 2³² uses
		clear(ws.rec)
		ws.epoch = 0
	}
	ws.epoch++
	if g.N() > len(ws.rec) {
		ws.rec = make([]member, g.N())
	}
	rec, epoch := ws.rec, ws.epoch
	for _, v := range verts {
		rec[v].in = epoch
	}
	d := 0
	for _, v := range verts {
		dv := 0
		for _, w := range g.Neighbors(v) {
			if rec[w].in == epoch {
				dv++
			}
		}
		d = max(d, dv)
	}
	return d
}

// classes returns the workspace's output buffer cut to n entries.
func (ws *Workspace) classes(n int) []int {
	if n > cap(ws.out) {
		ws.out = make([]int, n)
	}
	return ws.out[:n]
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
// workspace has grown to the graph, work and allocation are proportional
// to the list and its edges, not to n.
func (ws *Workspace) LinialColor(nw *local.Network, ledger *local.Ledger, phase string, verts []int) ([]int, int) {
	verts = allIfNil(verts, nw.G.N())
	return ws.linial(nw, ledger, phase, verts, ws.begin(nw.G, verts))
}

// linial is LinialColor over the workspace's members verts, whose induced
// maximum degree is d.
func (ws *Workspace) linial(nw *local.Network, ledger *local.Ledger, phase string, verts []int, d int) ([]int, int) {
	g := nw.G
	rec := ws.rec
	out := ws.classes(len(verts))
	if d == 0 {
		// no edges: one color suffices, zero rounds
		clear(out)
		return out, 1
	}
	for _, v := range verts {
		rec[v].color = int32(nw.ID[v] - 1) // palette [0, n)
	}
	k := g.N()
	for {
		q, t := linialPrime(k, d)
		if q*q >= k {
			for i, v := range verts {
				out[i] = int(rec[v].color)
			}
			return out, k
		}
		ws.sweep(g, verts, out, newField(q), t)
		for i, v := range verts {
			rec[v].color = int32(out[i])
		}
		k = q * q
		if ledger != nil {
			ledger.Charge(phase, 1)
		}
	}
}

// sweep is one Linial step of every member in verts, over the field f of
// the step's prime, t digits per color. New colors go to out (one per list
// position); the members' colors are left for the caller to write back
// after the sweep, so every vertex picks from its neighbors' old colors.
// Most vertices settle at x = 0, where p_c(0) is c mod q: the sweep tries
// that point first on the member records, skipping neighbors of the
// vertex's own color as linialStep does. Only a vertex with a clash there
// gathers its neighbors' colors, in adjacency order, for linialStep from
// x = 1.
func (ws *Workspace) sweep(g *graph.Graph, verts, out []int, f field, t int) {
	rec, epoch := ws.rec, ws.epoch
	nbrs := ws.nbrs
	for i, v := range verts {
		own := rec[v].color
		_, r0 := f.divmod(uint64(own))
		clash := false
		for _, w := range g.Neighbors(v) {
			if r := rec[w]; r.in == epoch && r.color != own {
				if _, rw := f.divmod(uint64(r.color)); rw == r0 {
					clash = true
					break
				}
			}
		}
		if !clash {
			out[i] = int(r0)
			continue
		}
		nbrs = nbrs[:0]
		for _, w := range g.Neighbors(v) {
			if r := rec[w]; r.in == epoch {
				nbrs = append(nbrs, int(r.color))
			}
		}
		out[i] = linialStep(int(own), nbrs, f, t, 1)
	}
	ws.nbrs = nbrs
}

// ReduceToMaxDegPlusOne takes a proper coloring with palette [0, k) of the
// graph induced by verts (nil = all vertices), aligned with verts, and
// reduces it to the palette [0, Δ+1] by recoloring one color class per
// round (classes are independent sets, so all members recolor
// simultaneously). Charges max(0, k-(Δ+1)) rounds. Every vertex ends with a
// color in [0, deg(v)] ⊆ [0, Δ]; the result is aligned with verts. colors is
// not modified, and may be classes this workspace returned. The palette
// must fit an int32 (k ≤ MaxInt32).
func (ws *Workspace) ReduceToMaxDegPlusOne(nw *local.Network, ledger *local.Ledger, phase string,
	verts []int, colors []int, k int) []int {
	verts = allIfNil(verts, nw.G.N())
	d := ws.begin(nw.G, verts)
	out := ws.classes(len(colors))
	copy(out, colors)
	return ws.reduce(nw.G, ledger, phase, verts, out, k, d)
}

// reduce is ReduceToMaxDegPlusOne over the workspace's members verts, whose
// induced maximum degree is d. It recolors colors in place and returns it.
func (ws *Workspace) reduce(g *graph.Graph, ledger *local.Ledger, phase string,
	verts []int, colors []int, k, d int) []int {
	if k > math.MaxInt32 {
		panic(fmt.Sprintf("reduce: palette %d exceeds MaxInt32", k))
	}
	lo := d + 1
	if k <= lo {
		return colors
	}
	rec, epoch := ws.rec, ws.epoch
	for i, v := range verts {
		rec[v].color = int32(colors[i])
	}
	order := ws.recolorOrder(colors, lo, k)
	used := &ws.used
	for _, i := range order {
		v := verts[i]
		// The first free color of [0, d]: colors below 64 are marked in a
		// local word, whose lowest clear bit it is unless all 64 are taken,
		// and only a palette wider than 64 marks the rest in ws.used. A
		// color above d in the word is never the lowest clear bit while
		// one of [0, d] is free, so it needs no test.
		if d >= 64 {
			used.Reset(d + 1)
		}
		var word uint64
		for _, w := range g.Neighbors(v) {
			if r := rec[w]; r.in == epoch {
				if c := r.color; uint32(c) < 64 {
					word |= 1 << uint32(c)
				} else if c >= 0 && int(c) <= d {
					used.Set(int(c))
				}
			}
		}
		picked := bits.TrailingZeros64(^word)
		if picked == 64 {
			for picked <= d && used.Test(picked) {
				picked++
			}
		}
		if picked > d {
			panic("reduce: no free color ≤ Δ (internal bug)")
		}
		rec[v].color = int32(picked)
		colors[i] = picked
	}
	if ledger != nil {
		ledger.Charge(phase, k-lo)
	}
	return colors
}

// recolorOrder returns the positions i with colors[i] in [lo, k), by
// descending color and then ascending position: the order in which the
// class-per-round reduction recolors them. A vertex only changes color when
// its own class is processed (to a color < lo), and a class is an
// independent set, so visiting each class in any order recolors it exactly
// as a simultaneous round would. It is one counting sort whose k-lo+1
// counters and whose output live in the workspace.
func (ws *Workspace) recolorOrder(colors []int, lo, k int) []int32 {
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
	if int(above[k-lo]) > cap(ws.order) {
		ws.order = make([]int32, above[k-lo])
	}
	order := ws.order[:above[k-lo]]
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
func (ws *Workspace) DegPlusOne(nw *local.Network, ledger *local.Ledger, phase string, verts []int) []int {
	verts = allIfNil(verts, nw.G.N())
	d := ws.begin(nw.G, verts)
	colors, k := ws.linial(nw, ledger, phase+"/linial", verts, d)
	return ws.reduce(nw.G, ledger, phase+"/reduce", verts, colors, k, d)
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
