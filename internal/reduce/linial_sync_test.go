package reduce

import (
	"context"
	"fmt"

	"distcolor/internal/local"
)

// linialProgram is Linial's color reduction as a genuine message-passing
// node program: each round every node broadcasts its current color;
// receiving the neighbors' colors, it evaluates its polynomial against
// theirs and picks a non-conflicting point with linialStep, from x = 0.
// Message size is O(log n) bits — this subroutine is CONGEST-friendly,
// unlike the ball-collection phases. It is the message-plane oracle for
// LinialColor, whose sweep settles x = 0 itself.
type linialProgram struct {
	info    local.NodeInfo
	d       int // global max degree (known to all nodes, like n)
	color   int
	k       int // current palette size
	nbrCols []int
}

type linialMsg struct{ color int }

func (p *linialProgram) Init(info local.NodeInfo) {
	p.info = info
	p.color = info.ID - 1
	p.k = info.N
}

func (p *linialProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	if p.d == 0 {
		p.color = 0
		return nil, true
	}
	p.nbrCols = p.nbrCols[:0]
	for _, in := range inbox {
		m, ok := in.Msg.(linialMsg)
		if !ok {
			continue
		}
		p.nbrCols = append(p.nbrCols, m.color)
	}
	// Apply the reduction with last round's colors. All nodes track the
	// same palette sequence (it depends only on n and Δ), so they stay in
	// lockstep and halt at the same step.
	if round > 1 {
		q, t := linialPrime(p.k, p.d)
		p.color = linialStep(p.color, p.nbrCols, newField(q), t, 0)
		p.k = q * q
	}
	// Broadcast only if another iteration will shrink the palette.
	q, _ := linialPrime(p.k, p.d)
	if q*q >= p.k {
		return nil, true
	}
	return []local.Outbound{{Port: local.Broadcast, Msg: linialMsg{color: p.color}}}, false
}

func (p *linialProgram) Output() any { return p.color }

// linialFixpoint returns the final palette size and the iteration count of
// Linial's palette sequence n → q² → … for max degree d: the sequence every
// node tracks in lockstep, and therefore the exact round cost of the sync
// program.
func linialFixpoint(n, d int) (palette, iters int) {
	k := n
	for {
		q, _ := linialPrime(k, max(d, 1))
		if q*q >= k {
			return k, iters
		}
		k = q * q
		iters++
	}
}

// LinialColorSync runs Linial's reduction with real message passing and
// returns the coloring plus the final palette size, which LinialColor must
// match vertex by vertex. The engine guard is the exact fixpoint iteration
// count (known in advance from n and Δ) plus the output step — not a
// hardcoded constant.
func LinialColorSync(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string) ([]int, int, error) {
	g := nw.G
	d := g.MaxDegree()
	k, iters := linialFixpoint(g.N(), d)
	outs, err := local.RunSync(ctx, nw, ledger, phase, iters+2, func(v int) local.Program {
		return &linialProgram{d: d}
	})
	if err != nil {
		return nil, 0, err
	}
	colors := make([]int, g.N())
	for v, o := range outs {
		c, ok := o.(int)
		if !ok || c < 0 {
			return nil, 0, fmt.Errorf("reduce: node %d produced no color", v)
		}
		colors[v] = c
	}
	return colors, k, nil
}
