package distcolor_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"distcolor"
	"distcolor/internal/serve/runcfg"
)

// The golden suite pins the exact colorings (not just properness) of every
// registered algorithm on the graph families the examples/ programs use —
// planar triangulations, grids, forest unions, random regular graphs,
// cycles, Klein grids. The bitset-palette refactor of the color-reduction
// inner loops must preserve the "first free color of the list" tie-break
// bit for bit; any drift in a single vertex's color changes the fingerprint
// and fails here. Regenerate with `go test -run TestGoldenColorings -update`
// ONLY for a change that intentionally alters results.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

// goldenCase is one (algorithm, graph, seed) cell of the pinned matrix.
// Graphs are gen specs drawn with generator seed 1 (the same convention as
// the determinism suite), so the inputs are reproducible from the spec
// string alone.
type goldenCase struct {
	Algo string `json:"algo"`
	Spec string `json:"spec"`
	Seed uint64 `json:"seed"`
	// Lists names caller lists (see goldenLists); empty means the
	// algorithm's default lists.
	Lists string `json:"lists,omitempty"`
}

// goldenResult is the pinned fingerprint of one run.
type goldenResult struct {
	goldenCase
	// Hash is an FNV-1a fingerprint of the per-vertex colors in order.
	Hash uint64 `json:"hash"`
	// NumColors, Rounds and Messages pin the run's reported statistics.
	NumColors int `json:"num_colors"`
	Rounds    int `json:"rounds"`
	Messages  int `json:"messages"`
}

// goldenCases maps every registered algorithm to graphs satisfying its
// hypotheses, mirroring the workloads in examples/ (quickstart's Apollonian
// triangulation, localmodel's grid, arboricity's forest unions and random
// regular graphs, nicelists' planar graphs, lowerbound's cycles with
// pendant cliques, planar6's Klein grids).
func goldenCases() []goldenCase {
	specsByAlgo := map[string][]string{
		"sparse":        {"regular:200,3", "apollonian:200"},
		"planar6":       {"apollonian:200"},
		"trianglefree4": {"grid:8x8"},
		"girth6":        {"cycle:100", "subdivided:60"},
		"arboricity":    {"forests:150,2"},
		"genus":         {"klein:5x9"},
		"delta":         {"grid:8x8"},
		"nice":          {"apollonian:100"},
		"gps7":          {"apollonian:200"},
		"be":            {"forests:150,2"},
		"luby":          {"regular:200,3"},
		"randomized":    {"grid:8x8"},
	}
	// Caller-list cells: "random:P" draws each vertex a random k-subset of
	// {0..P-1} the way runcfg does; "mixed:P" then lifts some colors past
	// 2^20, so lists with and without huge colors meet across edges.
	listsByAlgo := map[string][]goldenCase{
		"sparse":  {{Spec: "regular:200,3", Lists: "random:8"}, {Spec: "regular:200,3", Lists: "mixed:8"}},
		"planar6": {{Spec: "apollonian:200", Lists: "random:14"}},
		"delta":   {{Spec: "grid:8x8", Lists: "random:10"}},
	}
	var cases []goldenCase
	for _, a := range distcolor.Algorithms() {
		specs, ok := specsByAlgo[a.Name]
		if !ok {
			// A newly registered algorithm must at least pin its smoke graph.
			specs = []string{a.Smoke}
		}
		for _, spec := range specs {
			for _, seed := range []uint64{3, 17} {
				cases = append(cases, goldenCase{Algo: a.Name, Spec: spec, Seed: seed})
			}
		}
		for _, lc := range listsByAlgo[a.Name] {
			for _, seed := range []uint64{3, 17} {
				cases = append(cases, goldenCase{Algo: a.Name, Spec: lc.Spec, Seed: seed, Lists: lc.Lists})
			}
		}
	}
	return cases
}

// goldenLists builds the caller lists a list cell names, deterministically
// in (g, algo, spec, seed). Each list has the algorithm's palette size k.
func goldenLists(t *testing.T, g *distcolor.Graph, gc goldenCase) [][]int {
	t.Helper()
	kind, p, _ := strings.Cut(gc.Lists, ":")
	palette, err := strconv.Atoi(p)
	if err != nil {
		t.Fatalf("bad lists spec %q: %v", gc.Lists, err)
	}
	a, err := distcolor.Lookup(gc.Algo)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := a.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := a.PaletteSize(g, vals)
	if !ok || k > palette {
		t.Fatalf("%s: palette size %d (known %v) does not fit palette %d", gc.Algo, k, ok, palette)
	}
	rng := rand.New(rand.NewPCG(gc.Seed, 0x9e3779b97f4a7c15))
	lists := make([][]int, g.N())
	for v := range lists {
		lists[v] = rng.Perm(palette)[:k]
		if kind == "mixed" && v%3 != 0 {
			for i := 1; i < k; i += 2 {
				lists[v][i] += 1 << 20
			}
		}
	}
	return lists
}

func (gc goldenCase) key() string {
	return fmt.Sprintf("%s|%s|%d|%s", gc.Algo, gc.Spec, gc.Seed, gc.Lists)
}

func colorHash(colors []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range colors {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(c) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func runGoldenCase(t *testing.T, gc goldenCase) goldenResult {
	t.Helper()
	g, err := runcfg.Generate(gc.Spec, 1)
	if err != nil {
		t.Fatalf("generating %q: %v", gc.Spec, err)
	}
	opts := []distcolor.Option{distcolor.WithSeed(gc.Seed)}
	if gc.Lists != "" {
		opts = append(opts, distcolor.WithLists(goldenLists(t, g, gc)))
	}
	col, err := distcolor.Run(context.Background(), g, gc.Algo, opts...)
	if err != nil {
		t.Fatalf("%s on %s (seed %d, lists %q): %v", gc.Algo, gc.Spec, gc.Seed, gc.Lists, err)
	}
	if col.Colors == nil {
		t.Fatalf("%s on %s (seed %d): unexpected clique certificate %v", gc.Algo, gc.Spec, gc.Seed, col.Clique)
	}
	return goldenResult{
		goldenCase: gc,
		Hash:       colorHash(col.Colors),
		NumColors:  distcolor.NumColors(col.Colors),
		Rounds:     col.Rounds,
		Messages:   col.Messages,
	}
}

func goldenPath() string { return filepath.Join("testdata", "golden.json") }

func TestGoldenColorings(t *testing.T) {
	if *updateGolden {
		var results []goldenResult
		for _, gc := range goldenCases() {
			results = append(results, runGoldenCase(t, gc))
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(results), goldenPath())
		return
	}
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenColorings -update`): %v", err)
	}
	var want []goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	wantByKey := make(map[string]goldenResult, len(want))
	for _, w := range want {
		wantByKey[w.key()] = w
	}
	for _, gc := range goldenCases() {
		gc := gc
		name := fmt.Sprintf("%s/%s/seed%d", gc.Algo, gc.Spec, gc.Seed)
		if gc.Lists != "" {
			name += "/" + gc.Lists
		}
		t.Run(name, func(t *testing.T) {
			key := gc.key()
			w, ok := wantByKey[key]
			if !ok {
				t.Fatalf("no golden entry for %s — regenerate with -update", key)
			}
			got := runGoldenCase(t, gc)
			if got.Hash != w.Hash || got.NumColors != w.NumColors || got.Rounds != w.Rounds || got.Messages != w.Messages {
				t.Errorf("golden drift on %s:\n  got  hash=%x colors=%d rounds=%d messages=%d\n  want hash=%x colors=%d rounds=%d messages=%d",
					key, got.Hash, got.NumColors, got.Rounds, got.Messages,
					w.Hash, w.NumColors, w.Rounds, w.Messages)
			}
		})
	}
}
