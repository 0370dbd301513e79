package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that compare applies.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// isExact reports whether a metric is an exact count: two runs with the
// same seeds must read the same, whatever its bound.
func isExact(name string) bool {
	return name == "colors_used" || name == "local_rounds" || strings.HasPrefix(name, "rounds.")
}

// compareCmd implements `bench compare A.json B.json`: every (workload,
// end-to-end metric) row of the result files, plus the exact per-layer
// counts when both files hold traced runs, gets a verdict. It exits 1 when
// any row is worse.
func compareCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", *benchPath+":", err)
		return 2
	}
	a, err := readResultFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResultFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compareRuns(def, a.Runs, b.Runs)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tspread\tverdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\n",
			r.workload, r.metric, r.a, r.b, 100*r.change, 100*r.bound, 100*r.spread, r.verdict)
		worse = worse || r.verdict == "worse"
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	a, b             float64 // medians
	change           float64 // relative worsening of B against A (negative: better)
	bound, spread    float64
	verdict          string // ok, worse or unresolved
}

// compareRuns builds one row per workload present in both sets and metric
// of the definition: the end-to-end metrics from untraced runs, and the
// exact per-layer counts from traced runs.
func compareRuns(def benchmarkFile, a, b []*result) []compareRow {
	var rows []compareRow
	for _, w := range workloadsOf(a) {
		for _, trace := range []int{0, 1} {
			ra, rb := runsOf(a, w, trace), runsOf(b, w, trace)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			defs := def.EndToEnd
			if trace == 1 {
				defs = nil
				for _, d := range def.PerLayer {
					if isExact(d.Name) {
						defs = append(defs, d)
					}
				}
			}
			sameSeeds := slices.Equal(seedsOf(ra), seedsOf(rb))
			for _, d := range defs {
				row := compareRow{workload: w, metric: d.Name, bound: d.Bound}
				va, vb := valuesOf(ra, d.Name), valuesOf(rb, d.Name)
				row.a, row.b = median(va), median(vb)
				if isExact(d.Name) && sameSeeds {
					row.bound = 0
					row.verdict = "ok"
					if !slices.Equal(sortedCopy(va), sortedCopy(vb)) {
						row.verdict = "worse"
						row.change = relChange(row.a, row.b, d.Better)
					}
				} else {
					row.change, row.spread, row.verdict = verdict(va, vb, d.Better, d.Bound)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// verdict compares B's runs against A's for one metric. The change is B's
// median worsening relative to A's (positive is worse); the spread is the
// wider of the two sides' quartile spreads. Where the spread exceeds the
// bound the comparison is unresolved, unless every run of B reads better
// than every run of A.
func verdict(a, b []float64, better string, bound float64) (change, spread float64, v string) {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1), 0, "worse"
	}
	change = relChange(median(a), median(b), better)
	spread = max(quartileSpread(a), quartileSpread(b))
	if spread > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return change, spread, "ok"
		}
		return change, spread, "unresolved"
	}
	if change > bound {
		return change, spread, "worse"
	}
	return change, spread, "ok"
}

// relChange is how much worse mb is than ma, as a share of ma.
func relChange(ma, mb float64, better string) float64 {
	d := mb - ma
	if better == "higher" {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case ma == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(ma)
}

func workloadsOf(runs []*result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

func runsOf(runs []*result, workload string, trace int) []*result {
	var out []*result
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func seedsOf(runs []*result) []uint64 {
	var out []uint64
	for _, r := range runs {
		out = append(out, r.Seed)
	}
	slices.Sort(out)
	return out
}

func valuesOf(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
