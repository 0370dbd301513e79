package distcolor

import (
	"context"
	"math/rand/v2"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// This file is the whole of the "luby" algorithm — a Luby-style randomized
// (Δ+1)-coloring baseline (cf. Luby, SIAM J. Comput. 1986, and the
// randomized-competitor discussion in PAPERS.md) — and doubles as the
// registry's proof of concept: registering one Algorithm descriptor with a
// run func is all it takes to surface a new algorithm in the public API,
// the CLI (-algo luby, -smoke) and the HTTP server, with validation,
// coalescing keys, cancellation and progress inherited for free.

// lubyProgram is one node of the randomized (Δ+1)-coloring: each round,
// with probability ½ (Luby's wake-up trick), an uncolored node proposes a
// color drawn uniformly from {0..Δ} minus its neighbors' finalized colors;
// it keeps the proposal if no neighbor proposed the same color this round,
// announces it, and halts. With (Δ+1)-size palettes a free color always
// exists, and every uncolored node finalizes with constant probability per
// round, so the run completes in O(log n) rounds with high probability.
type lubyProgram struct {
	// palette holds the colors of {0..Δ} not yet taken by finalized
	// neighbors. The slice version kept its colors in ascending order and
	// drew palette[rng.IntN(len)], i.e. the k-th remaining color in
	// ascending order — which is exactly Bitset.SelectSet(k), so the bitset
	// reproduces the draw sequence bit for bit while removal becomes one
	// word op instead of a slice scan+copy.
	palette   *graph.Bitset
	remaining int
	rng       *rand.Rand
	color     int
	cand      int
}

type lubyMsg struct {
	candidate int
	final     bool
}

func (p *lubyProgram) Init(info local.NodeInfo) {
	p.color = Uncolored
	p.cand = Uncolored
}

func (p *lubyProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	conflict := false
	for _, in := range inbox {
		m := in.Msg.(lubyMsg)
		if m.final {
			if m.candidate >= 0 && m.candidate < p.palette.Len() && p.palette.Test(m.candidate) {
				p.palette.Clear(m.candidate)
				p.remaining--
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
		return nil, true // final color was announced last round
	}
	if p.cand != Uncolored && !conflict {
		p.color = p.cand
		return []local.Outbound{{Port: local.Broadcast, Msg: lubyMsg{candidate: p.color, final: true}}}, false
	}
	p.cand = Uncolored
	// Luby wake-up: stay silent this round with probability ½.
	if p.rng.IntN(2) == 0 {
		return nil, false
	}
	p.cand = p.palette.SelectSet(p.rng.IntN(p.remaining))
	return []local.Outbound{{Port: local.Broadcast, Msg: lubyMsg{candidate: p.cand}}}, false
}

func (p *lubyProgram) Output() any { return p.color }

func init() {
	MustRegister(&Algorithm{
		Name:       "luby",
		Doc:        "Luby-style randomized (Δ+1)-coloring with ½-probability wake-ups (baseline)",
		Theorem:    "baseline (Luby 1986)",
		Lists:      ListsNone,
		Smoke:      "regular:60,3",
		RoundBound: lubyStyleBound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			rng := rc.RNG()
			nw := local.NewShuffledNetwork(g, rng)
			delta := g.MaxDegree()
			ledger := rc.ledger()
			seed := rng.Uint64()
			outs, err := local.RunSync(ctx, nw, ledger, "luby", rc.MaxRounds(g), func(v int) local.Program {
				palette := graph.NewBitset(delta + 1)
				for i := 0; i <= delta; i++ {
					palette.Set(i)
				}
				return &lubyProgram{
					palette:   palette,
					remaining: delta + 1,
					rng:       rand.New(rand.NewPCG(seed, uint64(nw.ID[v]))),
				}
			})
			if err != nil {
				return nil, err
			}
			colors := make([]int, g.N())
			for v, o := range outs {
				colors[v] = o.(int)
			}
			return coloringFromLedger(colors, ledger), nil
		},
	})
}
