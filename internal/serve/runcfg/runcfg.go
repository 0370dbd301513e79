// Package runcfg is the wire-level run configuration shared by
// cmd/distcolor and the serving layer (internal/serve): the JSON shape of a
// job config, canonical coalescing keys, compact result summaries, and the
// engine.<phase> spans built from a run's trace.
//
// runcfg holds no algorithm knowledge of its own: names, parameter schemas,
// defaults, validation rules and palette sizes are all read from the
// distcolor Algorithm registry, and Run delegates to distcolor.Run. There
// is exactly one dispatch table in the system — registering an algorithm
// makes it a valid wire config everywhere at once — and a CLI invocation
// and a server job with the same config produce byte-identical results.
package runcfg

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"time"

	"distcolor"
	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/obs"
)

// genStream is the PCG stream constant for graph generation; listStream
// seeds the per-run rng that draws random color lists. Both are fixed so a
// (spec, seed) or (config, seed) pair names one graph or run forever.
const (
	genStream  = 0x2545f4914f6cdd1d
	listStream = 0x9e3779b97f4a7c15
)

// Generate builds the graph named by a gen.ParseSpec spec, deterministically
// in (spec, seed).
func Generate(spec string, seed uint64) (*graph.Graph, error) {
	rng := rand.New(rand.NewPCG(seed, genStream))
	return gen.ParseSpec(spec, rng)
}

// Config selects an algorithm and its parameters. The zero value of every
// field is "use the default" (see WithDefaults). Config is a value type and
// safe to copy; Key gives its canonical form.
type Config struct {
	// Algo is one of Algorithms() (the distcolor registry names): sparse,
	// planar6, trianglefree4, girth6, arboricity, genus, delta, nice, gps7,
	// be, randomized, luby, plus anything registered on top.
	Algo string `json:"algo"`
	// D is the sparsity parameter for algo sparse (mad(G) ≤ d, d ≥ 3).
	D int `json:"d,omitempty"`
	// A is the arboricity for algos arboricity and be.
	A int `json:"a,omitempty"`
	// Eps is the ε of Barenboim–Elkin's ⌊(2+ε)a⌋+1 coloring (algo be).
	Eps float64 `json:"eps,omitempty"`
	// Genus is the Euler genus for algo genus.
	Genus int `json:"genus,omitempty"`
	// Seed shuffles node IDs (LOCAL IDs are adversarial) and seeds random
	// list generation. 0 keeps the identity ID assignment.
	Seed uint64 `json:"seed,omitempty"`
	// ListSize, when non-zero, switches the run to random per-vertex lists
	// drawn from a palette of Palette colors instead of the uniform palette
	// (list sizes are the algorithm's required palette size).
	ListSize int `json:"listsize,omitempty"`
	// Palette is the palette size for random lists (0 = 2·ListSize+2).
	Palette int `json:"palette,omitempty"`
}

// Algorithms lists the accepted Config.Algo names, sorted — the distcolor
// registry's names, verbatim.
func Algorithms() []string { return distcolor.AlgorithmNames() }

// paramValue maps a registry parameter name to the Config field that
// carries it on the wire.
func (c Config) paramValue(name string) (float64, bool) {
	switch name {
	case "d":
		return float64(c.D), true
	case "a":
		return float64(c.A), true
	case "eps":
		return c.Eps, true
	case "genus":
		return float64(c.Genus), true
	}
	return 0, false
}

func (c *Config) setParam(name string, v float64) {
	switch name {
	case "d":
		c.D = int(v)
	case "a":
		c.A = int(v)
	case "eps":
		c.Eps = v
	case "genus":
		c.Genus = int(v)
	}
}

// explicitParams collects the algorithm's schema parameters from the wire
// fields, as an explicit assignment for distcolor's resolver.
func (c Config) explicitParams(a *distcolor.Algorithm) map[string]float64 {
	out := map[string]float64{}
	for _, p := range a.Params {
		if v, ok := c.paramValue(p.Name); ok {
			out[p.Name] = v
		}
	}
	return out
}

// WithDefaults returns the config with zero-valued parameters of the
// selected algorithm replaced by its registry schema defaults (parameters
// the algorithm ignores stay zero — they never enter Key or the dispatch).
// A Palette of 0 with random lists becomes 2·ListSize+2; without random
// lists Palette is normalized to 0 so it never distinguishes
// otherwise-identical configs.
func (c Config) WithDefaults() Config {
	if a, err := distcolor.Lookup(c.Algo); err == nil {
		for _, p := range a.Params {
			if v, ok := c.paramValue(p.Name); ok && v == 0 {
				c.setParam(p.Name, p.Default)
			}
		}
	}
	if c.ListSize == 0 {
		c.Palette = 0
	} else if c.Palette == 0 {
		c.Palette = 2*c.ListSize + 2
	}
	return c
}

// Validate rejects unknown algorithms and out-of-range parameters, using
// the registry's parameter schemas. It validates the config as given; apply
// WithDefaults first.
func (c Config) Validate() error {
	a, err := distcolor.Lookup(c.Algo)
	if err != nil {
		return fmt.Errorf("runcfg: unknown algorithm %q (want one of %s)",
			c.Algo, strings.Join(Algorithms(), "|"))
	}
	vals, err := a.ResolveParams(c.explicitParams(a))
	if err != nil {
		return fmt.Errorf("runcfg: %w", err)
	}
	if c.ListSize < 0 || c.Palette < 0 {
		return fmt.Errorf("runcfg: negative list parameters")
	}
	if c.ListSize > 0 && c.Palette > 0 && c.Palette < c.ListSize {
		return fmt.Errorf("runcfg: palette %d smaller than list size %d", c.Palette, c.ListSize)
	}
	if k, known := a.PaletteSize(nil, vals); known && c.ListSize > 0 && c.Palette > 0 && c.Palette < k {
		return fmt.Errorf("runcfg: palette %d too small for the %d-color lists algo %s requires", c.Palette, k, c.Algo)
	}
	return nil
}

// Key is the canonical identity of a run config: two configs with equal
// keys produce identical results on the same graph (Run is deterministic).
// Parameters outside the selected algorithm's schema (d for planar6, ε for
// sparse, …) are omitted so they never split the identity.
func (c Config) Key() string {
	c = c.WithDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "algo=%s,seed=%d", c.Algo, c.Seed)
	a, err := distcolor.Lookup(c.Algo)
	if err != nil {
		return b.String()
	}
	for _, p := range a.Params {
		v, ok := c.paramValue(p.Name)
		if !ok {
			continue
		}
		if p.Integer {
			fmt.Fprintf(&b, ",%s=%d", p.Name, int(v))
		} else {
			fmt.Fprintf(&b, ",%s=%g", p.Name, v)
		}
	}
	if c.ListSize > 0 && a.Lists == distcolor.ListsAny {
		fmt.Fprintf(&b, ",listsize=%d,palette=%d", c.ListSize, c.Palette)
	}
	return b.String()
}

// Result is the outcome of one coloring run.
type Result struct {
	// Colors[v] is v's color; nil when the run's alternative outcome is a
	// clique certificate.
	Colors []int
	// Clique is the K_{d+1} certificate, when found (Theorem 1.3).
	Clique []int
	// ColorsUsed counts distinct colors in Colors.
	ColorsUsed int
	// Rounds is the total LOCAL round cost; Phases the per-phase breakdown.
	Rounds int
	Phases []distcolor.Phase
	// Messages is the engine's point-to-point message total (0 for fully
	// centrally simulated runs) — the quantity the serving tier's
	// engine-messages metric accumulates.
	Messages int
	// Verified reports that the coloring was re-checked against the graph
	// (and the lists the run actually used) before being returned.
	Verified bool
}

// Summary renders the one-line outcome cmd/distcolor prints.
func (r *Result) Summary() string {
	if r.Clique != nil {
		return fmt.Sprintf("found K_%d: %v (rounds=%d)", len(r.Clique), r.Clique, r.Rounds)
	}
	s := fmt.Sprintf("colored with %d colors in %d LOCAL rounds", r.ColorsUsed, r.Rounds)
	if r.Verified {
		s += " (verified)"
	}
	return s
}

// Run executes the configured algorithm on g through distcolor.Run, which
// verifies the outcome. It is deterministic: the same (graph, config)
// always yields the same Result, no matter the caller, concurrency, or
// GOMAXPROCS — this is what lets the serving layer coalesce identical
// jobs. Apply WithDefaults and Validate first; Run applies defaults itself
// as a safety net.
//
// ctx cancels the run cooperatively (within one LOCAL round); the extra
// options are appended to the dispatch and must be observation-only
// (distcolor.WithProgress) so determinism is preserved.
func Run(ctx context.Context, g *graph.Graph, cfg Config, extra ...distcolor.Option) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, err := distcolor.Lookup(cfg.Algo)
	if err != nil {
		return nil, err
	}
	opts := []distcolor.Option{distcolor.WithSeed(cfg.Seed)}
	for name, v := range cfg.explicitParams(a) {
		opts = append(opts, distcolor.WithParam(name, v))
	}
	if cfg.ListSize > 0 && a.Lists == distcolor.ListsAny {
		vals, err := a.ResolveParams(cfg.explicitParams(a))
		if err != nil {
			return nil, fmt.Errorf("runcfg: %w", err)
		}
		k, known := a.PaletteSize(g, vals)
		if !known {
			return nil, fmt.Errorf("runcfg: algo %s has no known palette size for random lists", cfg.Algo)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, listStream))
		lists, err := randomLists(ctx, g.N(), k, cfg, rng)
		if err != nil {
			return nil, err
		}
		opts = append(opts, distcolor.WithLists(lists))
	}
	opts = append(opts, extra...)
	col, err := distcolor.Run(ctx, g, cfg.Algo, opts...)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Colors:   col.Colors,
		Clique:   col.Clique,
		Rounds:   col.Rounds,
		Phases:   col.Phases,
		Messages: col.Messages,
	}
	if col.Clique != nil {
		return res, nil
	}
	// distcolor.Run already verified the coloring against the lists the run
	// actually used (col.Lists); no second check here.
	res.ColorsUsed = distcolor.NumColors(col.Colors)
	res.Verified = true
	return res, nil
}

// RecordEngineSpans records one engine.<phase> retro-span under parent for
// every timed phase of rep, from the trace's wall-clock attribution, with
// the phase's rounds and messages as attributes. Timing-less phases (clock
// never started, e.g. zero-work runs) record nothing. The server's job.run
// span and the CLI's -spans root share this one span shape.
func RecordEngineSpans(tracer *obs.Tracer, parent obs.SpanContext, rep *distcolor.TraceReport) {
	for _, p := range rep.Phases {
		if p.StartUnixNs == 0 || p.EndUnixNs == 0 {
			continue
		}
		tracer.Record(parent, "engine."+p.Phase,
			time.Unix(0, p.StartUnixNs), time.Unix(0, p.EndUnixNs),
			obs.Attr{Key: "rounds", Value: strconv.Itoa(p.Rounds)},
			obs.Attr{Key: "messages", Value: strconv.Itoa(p.Messages)})
	}
}

// randomLists draws a random list of size k per vertex from cfg's palette.
// A palette smaller than k is an error, never silently widened: the run
// must use exactly the palette the config (and its coalescing Key) names.
// Each list costs O(palette), so ctx is checked once per vertex.
func randomLists(ctx context.Context, n, k int, c Config, rng *rand.Rand) ([][]int, error) {
	p := c.Palette
	if p < k {
		return nil, fmt.Errorf("runcfg: palette %d too small for the %d-color lists algo %s requires", p, k, c.Algo)
	}
	out := make([][]int, n)
	for v := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Copy the prefix: a sub-slice would pin the whole O(palette)
		// permutation for the life of the run.
		out[v] = slices.Clone(rng.Perm(p)[:k])
	}
	return out, nil
}
