// Command benchjson turns `go test -bench -benchmem` output into the
// repository's persistent benchmark trajectory file (BENCH_PR.json) and
// gates regressions against a committed baseline.
//
// Four modes, composable in one invocation:
//
//	go test -run xxx -bench ... -benchmem ./... | benchjson -out BENCH_PR.json
//	go test -run xxx -bench ... -benchmem ./... | benchjson -check BENCH_PR.json -tolerance 1.5
//	go test -run xxx -bench ... -benchmem ./... | benchjson -check BENCH_PR.json -tolerance 0 -allocs-tolerance 1.10
//	go test -run xxx -bench 'X(Obs)?$' ./... | benchjson -overhead Obs -overhead-tolerance 1.05
//	go test -run xxx -bench GraphLoad ./... | benchjson -faster 'BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text' -speedup 10
//
// -overhead pairs benchmarks WITHIN one run: each benchmark whose top-level
// name ends in the suffix (BenchmarkFooObs, BenchmarkFooObs/case) is gated
// against its unsuffixed twin (BenchmarkFoo, BenchmarkFoo/case) from the
// same input — the instrumentation-overhead guard, free of any committed
// baseline. Suffixed benchmarks without a twin are ignored.
//
// -faster "A<B" asserts a speedup RATIO within one run: benchmark A's ns/op
// × -speedup must not exceed benchmark B's ns/op (i.e. A is at least
// -speedup× faster than B). Unlike -overhead, both names are explicit and
// MISSING names fail the gate — a renamed benchmark cannot silently turn
// the check into a no-op.
//
// The emitted JSON maps each benchmark name (GOMAXPROCS suffix stripped) to
// its ns/op and allocs/op. When a benchmark appears more than once in the
// input (-count > 1), the minimum ns/op line wins — the least-interference
// sample is the closest to the code's true cost. -check gates every result
// against the baseline: a result with no baseline entry fails it (a new
// benchmark must land with its number), while a baseline entry absent from
// the results (a retired or unselected benchmark) is ignored; a benchmark
// whose ns/op exceeds baseline × tolerance fails.
// -tolerance 0 turns the ns/op gate off. -allocs-tolerance (default 0, off)
// gates allocs/op the same way, forgiving growth below allocsSlack: allocs/op
// barely moves between machines or minutes, so that gate holds where a
// committed ns/op cannot. Benchmarks run without -benchmem on either side
// are not allocs-gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded trajectory point.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSparseListColor/random-sparse/n1e4-8  20  20400039 ns/op  1.47 MB/s  11185036 B/op  91158 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var allocsField = regexp.MustCompile(`([0-9]+) allocs/op`)

// parse reads benchmark lines from r, keeping the minimum ns/op per name.
func parse(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := Result{NsPerOp: ns, AllocsPerOp: -1}
		if a := allocsField.FindStringSubmatch(m[3]); a != nil {
			res.AllocsPerOp, _ = strconv.ParseInt(a[1], 10, 64)
		}
		if prev, ok := out[m[1]]; !ok || res.NsPerOp < prev.NsPerOp {
			out[m[1]] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines in input")
	}
	return out, nil
}

// allocsSlack is the allocs/op growth the allocs gate always forgives:
// allocation that follows the machine rather than the code, such as the
// block-parallel text reader's per-worker buffers, reads as tens of
// allocs/op on benchmarks that otherwise allocate next to nothing.
const allocsSlack = 64

// check compares results against a baseline, returning one line per result
// that has no baseline entry or regressed beyond a tolerance: new ns/op >
// old × tolerance, or new allocs/op > old × allocsTolerance and by at least
// allocsSlack. A tolerance ≤ 0 skips its gate.
func check(results, baseline map[string]Result, tolerance, allocsTolerance float64) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		old, ok := baseline[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no baseline entry", name))
			continue
		}
		cur := results[name]
		if tolerance > 0 && cur.NsPerOp > old.NsPerOp*tolerance {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx tolerance)",
				name, cur.NsPerOp, old.NsPerOp, cur.NsPerOp/old.NsPerOp, tolerance))
		}
		if allocsTolerance > 0 && old.AllocsPerOp >= 0 && cur.AllocsPerOp >= 0 &&
			float64(cur.AllocsPerOp) > float64(old.AllocsPerOp)*allocsTolerance &&
			cur.AllocsPerOp-old.AllocsPerOp >= allocsSlack {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op vs baseline %d (> %.2fx allocs tolerance)",
				name, cur.AllocsPerOp, old.AllocsPerOp, allocsTolerance))
		}
	}
	return bad
}

// twinName maps a suffixed benchmark name to its baseline twin: the suffix
// is stripped from the top-level name, sub-benchmark path preserved.
// ("BenchmarkFooObs/case", "Obs") → ("BenchmarkFoo/case", true).
func twinName(name, suffix string) (string, bool) {
	head, rest, sub := strings.Cut(name, "/")
	base := strings.TrimSuffix(head, suffix)
	if base == head || base == "Benchmark" {
		return "", false
	}
	if sub {
		base += "/" + rest
	}
	return base, true
}

// checkOverhead gates each suffixed benchmark against its twin in the same
// result set: suffixed ns/op must not exceed twin ns/op × tolerance.
func checkOverhead(results map[string]Result, suffix string, tolerance float64) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		twin, ok := twinName(name, suffix)
		if !ok {
			continue
		}
		base, ok := results[twin]
		if !ok {
			continue
		}
		if got := results[name].NsPerOp; got > base.NsPerOp*tolerance {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs %s %.0f (%.3fx > %.2fx tolerance)",
				name, got, twin, base.NsPerOp, got/base.NsPerOp, tolerance))
		}
	}
	return bad
}

// checkFaster enforces one "A<B" speedup claim inside a single result set:
// A's ns/op × speedup ≤ B's ns/op. A missing benchmark is an error, not a
// pass — the gate must notice when a rename detaches it from reality.
func checkFaster(results map[string]Result, claim string, speedup float64) error {
	fast, slow, ok := strings.Cut(claim, "<")
	fast, slow = strings.TrimSpace(fast), strings.TrimSpace(slow)
	if !ok || fast == "" || slow == "" {
		return fmt.Errorf("benchjson: -faster wants \"fastName<slowName\", got %q", claim)
	}
	if speedup <= 0 {
		return fmt.Errorf("benchjson: -speedup must be positive, got %v", speedup)
	}
	fr, ok := results[fast]
	if !ok {
		return fmt.Errorf("benchjson: -faster: benchmark %q not in input", fast)
	}
	sr, ok := results[slow]
	if !ok {
		return fmt.Errorf("benchjson: -faster: benchmark %q not in input", slow)
	}
	if fr.NsPerOp*speedup > sr.NsPerOp {
		return fmt.Errorf("benchjson: %s is only %.2fx faster than %s (%.0f vs %.0f ns/op), want ≥ %.2fx",
			fast, sr.NsPerOp/fr.NsPerOp, slow, fr.NsPerOp, sr.NsPerOp, speedup)
	}
	return nil
}

func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("benchjson: parsing baseline %s: %w", path, err)
	}
	return out, nil
}

// options are the command-line flags; see main for their meaning.
type options struct {
	outPath, checkPath         string
	tolerance, allocsTolerance float64
	overhead                   string
	overheadTol                float64
	faster                     string
	speedup                    float64
}

func run(in io.Reader, stderr io.Writer, o options) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	if o.faster != "" {
		if err := checkFaster(results, o.faster, o.speedup); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "benchjson: %s holds at ≥ %.2fx\n", o.faster, o.speedup)
	}
	if o.overhead != "" {
		if bad := checkOverhead(results, o.overhead, o.overheadTol); len(bad) > 0 {
			return fmt.Errorf("benchjson: %d benchmark(s) exceed their %s-twin by more than %.2fx:\n  %s",
				len(bad), o.overhead, o.overheadTol, strings.Join(bad, "\n  "))
		}
		fmt.Fprintf(stderr, "benchjson: no %s overhead beyond %.2fx\n", o.overhead, o.overheadTol)
	}
	if o.outPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), o.outPath)
	}
	if o.checkPath != "" {
		baseline, err := loadBaseline(o.checkPath)
		if err != nil {
			return err
		}
		var limits []string
		if o.tolerance > 0 {
			limits = append(limits, fmt.Sprintf("%.2fx ns/op", o.tolerance))
		}
		if o.allocsTolerance > 0 {
			limits = append(limits, fmt.Sprintf("%.2fx allocs/op", o.allocsTolerance))
		}
		if len(limits) == 0 {
			return fmt.Errorf("benchjson: -check with -tolerance 0 needs -allocs-tolerance")
		}
		gates := strings.Join(limits, " or ")
		if bad := check(results, baseline, o.tolerance, o.allocsTolerance); len(bad) > 0 {
			return fmt.Errorf("benchjson: %d regression(s) beyond %s or missing baselines:\n  %s",
				len(bad), gates, strings.Join(bad, "\n  "))
		}
		fmt.Fprintf(stderr, "benchjson: no regression beyond %s against %s\n", gates, o.checkPath)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.outPath, "out", "", "write parsed results as JSON to this path")
	flag.StringVar(&o.checkPath, "check", "", "baseline JSON to gate regressions against")
	flag.Float64Var(&o.tolerance, "tolerance", 1.5, "fail when ns/op exceeds baseline × tolerance (0 = do not gate ns/op)")
	flag.Float64Var(&o.allocsTolerance, "allocs-tolerance", 0, "fail when allocs/op exceeds baseline × this (0 = do not gate allocs/op)")
	flag.StringVar(&o.overhead, "overhead", "", "benchmark-name suffix to gate against its unsuffixed twin in the same run")
	flag.Float64Var(&o.overheadTol, "overhead-tolerance", 1.05, "fail when a suffixed benchmark exceeds its twin × this")
	flag.StringVar(&o.faster, "faster", "", "speedup claim \"fastName<slowName\" to enforce within this run (missing names fail)")
	flag.Float64Var(&o.speedup, "speedup", 1, "minimum ratio for -faster: fast ns/op × speedup must not exceed slow ns/op")
	flag.Parse()
	if o.outPath == "" && o.checkPath == "" && o.overhead == "" && o.faster == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -out, -check, -overhead and/or -faster")
		os.Exit(2)
	}
	if err := run(os.Stdin, os.Stderr, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
