package distcolor

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"distcolor/internal/local"
)

// Param describes one numeric parameter of an Algorithm: its wire name, its
// default, and its admissible range. Parameter resolution and validation are
// fully metadata-driven, so the CLI, the server and the public API all
// enforce identical rules.
type Param struct {
	// Name is the wire name ("d", "a", "eps", …), also accepted by
	// WithParam.
	Name string
	// Doc is a one-line description.
	Doc string
	// Default is used when the caller does not set the parameter.
	Default float64
	// Min is the smallest admissible value (exclusive when StrictMin).
	Min float64
	// StrictMin makes Min exclusive (e.g. ε > 0).
	StrictMin bool
	// Integer requires an integral value.
	Integer bool
}

// ListsSupport classifies how an algorithm consumes color lists.
type ListsSupport int

const (
	// ListsNone: the algorithm fixes its own palette; WithLists is
	// rejected (gps7, be, randomized, luby).
	ListsNone ListsSupport = iota
	// ListsOwn: caller lists are accepted but must satisfy an
	// algorithm-specific shape; when absent the algorithm draws its own
	// (nice). Random fixed-size wire lists are not supported.
	ListsOwn
	// ListsAny: any caller lists of size ≥ PaletteSize work (sparse,
	// planar6, trianglefree4, girth6, arboricity, genus, delta).
	ListsAny
)

// ParamValues is a resolved parameter assignment (defaults applied,
// validated against the schema).
type ParamValues map[string]float64

// Int returns the named parameter as an int.
func (p ParamValues) Int(name string) int { return int(p[name]) }

// Float returns the named parameter.
func (p ParamValues) Float(name string) float64 { return p[name] }

// RunFunc executes an algorithm on a graph under a resolved RunConfig. The
// returned Coloring must echo the lists it actually used in Coloring.Lists
// (nil when it used no lists, or only its canonical palette); Run verifies
// the coloring against them. An algorithm with ListsAny support that ran
// without caller lists and echoes none is checked against its canonical
// palette [0, PaletteSize(g, params)).
type RunFunc func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error)

// Algorithm is a self-describing coloring algorithm: the single source of
// truth the public API, the CLI and the serving layer all dispatch through.
// Built-ins register themselves at init; external packages may Register
// their own.
type Algorithm struct {
	// Name is the wire name ("sparse", "planar6", …), unique in the
	// registry.
	Name string
	// Doc is a one-line description.
	Doc string
	// Theorem names the paper result the algorithm implements ("Theorem
	// 1.3", "baseline", …).
	Theorem string
	// Params is the parameter schema; order is the canonical (wire-key)
	// order.
	Params []Param
	// Lists declares list support (see ListsSupport).
	Lists ListsSupport
	// PaletteSize returns the per-vertex list size k the algorithm
	// requires, when known. g may be nil for a static (graph-free) query;
	// algorithms whose k depends on the graph (delta) answer ok=false
	// then.
	PaletteSize func(g *Graph, p ParamValues) (k int, ok bool)
	// Smoke is a tiny generator spec (internal/gen.ParseSpec syntax) whose
	// output satisfies the algorithm's hypotheses under default
	// parameters; `distcolor -smoke` runs every registered algorithm on
	// its Smoke graph.
	Smoke string
	// RoundBound, when non-nil, returns a safe upper bound on the LOCAL
	// round cost of a run on a graph with n vertices and maximum degree
	// maxDeg, under default parameters — the registry's cost-prediction
	// metadata, surfaced by GET /v1/algorithms and `distcolor -list-algos`.
	// Algorithms that drive the message-passing engine directly (luby,
	// randomized) also enforce it as their maxRounds guard via
	// RunConfig.MaxRounds, so a run that blows past its declared bound
	// fails loudly instead of spinning; for the centrally simulated core
	// algorithms, which carry their own internal guards, the bound is
	// advisory.
	RoundBound func(n, maxDeg int) int
	// Run executes the algorithm.
	Run RunFunc
}

// RoundBoundRefN and RoundBoundRefMaxDeg are the canonical (n, maxDeg)
// point at which RoundBound metadata is quoted when no workload is named —
// the GET /v1/algorithms default and the `distcolor -list-algos` column.
// RoundBoundMaxDeg is the largest maxDeg a bound is ever evaluated at:
// callers clamp to it so quadratic bound formulas cannot overflow int64
// (16·RoundBoundMaxDeg² fits), and the built-in formulas clamp again
// themselves.
const (
	RoundBoundRefN      = 1_000_000
	RoundBoundRefMaxDeg = 100
	RoundBoundMaxDeg    = 500_000_000
)

// defaultMaxRounds is the engine guard for algorithms that declare no
// RoundBound: generous enough for any polylog-round run at realistic n,
// small enough that a non-terminating program still fails.
const defaultMaxRounds = 1 << 20

// MaxRounds returns the engine's maxRounds guard for a run on g: the
// algorithm's RoundBound metadata when declared, else defaultMaxRounds.
func (rc *RunConfig) MaxRounds(g *Graph) int {
	if rc.algo != nil && rc.algo.RoundBound != nil {
		if b := rc.algo.RoundBound(g.N(), g.MaxDegree()); b > 0 {
			return b
		}
	}
	return defaultMaxRounds
}

// RunConfig is the resolved form of a Run invocation's options, handed to
// an Algorithm's Run func.
type RunConfig struct {
	// Seed shuffles node identifiers and seeds any internal randomness
	// (0 = identity IDs).
	Seed uint64
	// BallC overrides the paper's ball-radius constant (0 = default);
	// ignored by algorithms without ball phases.
	BallC float64
	// Lists is the caller-supplied list assignment (nil = algorithm
	// default).
	Lists [][]int
	// Params is the fully resolved parameter assignment.
	Params ParamValues

	algo     *Algorithm
	explicit map[string]float64
	led      *local.Ledger // the run's one ledger; see ledger
	rng      *rand.Rand
}

// RNG returns the run's deterministic random source, derived from Seed.
// Algorithms that draw their own lists or per-node seeds must take all
// randomness from here so results stay a pure function of (graph, config).
func (rc *RunConfig) RNG() *rand.Rand {
	if rc.rng == nil {
		rc.rng = rand.New(rand.NewPCG(rc.Seed, listStream))
	}
	return rc.rng
}

// ledger returns the run's ledger, which every phase of the run charges:
// the WithTrace recorder, or a fresh one.
func (rc *RunConfig) ledger() *local.Ledger {
	if rc.led == nil {
		rc.led = &local.Ledger{}
	}
	return rc.led
}

// network binds the graph to the run's ID assignment (shuffled when Seed is
// non-zero — the LOCAL model assigns IDs adversarially).
func (rc *RunConfig) network(g *Graph) *local.Network { return network(g, rc.Seed) }

// ResolveParams validates an explicit parameter assignment against the
// schema and fills defaults for unset parameters. Unknown names and
// out-of-range values are errors.
func (a *Algorithm) ResolveParams(explicit map[string]float64) (ParamValues, error) {
	vals := make(ParamValues, len(a.Params))
	for _, p := range a.Params {
		v, ok := explicit[p.Name]
		if !ok {
			v = p.Default
		}
		if p.Integer && v != math.Trunc(v) {
			return nil, fmt.Errorf("distcolor: algorithm %q: parameter %s must be an integer, got %g", a.Name, p.Name, v)
		}
		if v < p.Min || (p.StrictMin && v == p.Min) {
			rel := "≥"
			if p.StrictMin {
				rel = ">"
			}
			return nil, fmt.Errorf("distcolor: algorithm %q needs %s %s %g, got %g", a.Name, p.Name, rel, p.Min, v)
		}
		vals[p.Name] = v
	}
	for name := range explicit {
		if _, ok := vals[name]; !ok {
			return nil, fmt.Errorf("distcolor: algorithm %q has no parameter %q", a.Name, name)
		}
	}
	return vals, nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Algorithm{}
)

// Register adds an algorithm to the registry. The name must be non-empty
// and unused; Run must be non-nil. Registered algorithms immediately become
// available to Run, the CLI and the serving layer.
func Register(a *Algorithm) error {
	if a == nil || a.Name == "" {
		return fmt.Errorf("distcolor: Register needs a named algorithm")
	}
	if a.Run == nil {
		return fmt.Errorf("distcolor: algorithm %q has no Run func", a.Name)
	}
	seen := map[string]bool{}
	for _, p := range a.Params {
		if p.Name == "" || seen[p.Name] {
			return fmt.Errorf("distcolor: algorithm %q has an unnamed or duplicate parameter", a.Name)
		}
		seen[p.Name] = true
	}
	if a.PaletteSize == nil {
		a.PaletteSize = func(*Graph, ParamValues) (int, bool) { return 0, false }
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name]; dup {
		return fmt.Errorf("distcolor: algorithm %q already registered", a.Name)
	}
	registry[a.Name] = a
	return nil
}

// MustRegister is Register, panicking on error (init-time registration).
func MustRegister(a *Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// Lookup finds a registered algorithm by wire name.
func Lookup(name string) (*Algorithm, error) {
	regMu.RLock()
	a, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("distcolor: unknown algorithm %q (registered: %s)", name, namesJoined())
	}
	return a, nil
}

// Algorithms returns every registered algorithm, sorted by name.
func Algorithms() []*Algorithm {
	regMu.RLock()
	out := make([]*Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AlgorithmNames returns the registered wire names, sorted.
func AlgorithmNames() []string {
	algos := Algorithms()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

func namesJoined() string { return strings.Join(AlgorithmNames(), "|") }
