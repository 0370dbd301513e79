package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: distcolor
cpu: some cpu
BenchmarkSparseListColor/random-sparse/n1e4-8   	      20	  20400039 ns/op	   1.47 MB/s	11185036 B/op	   91158 allocs/op
BenchmarkSparseListColor/random-sparse/n1e4-8   	      20	  21000000 ns/op	   1.44 MB/s	11185036 B/op	   91158 allocs/op
BenchmarkRunSyncDelivery-8   	       5	 123456789 ns/op	 500.00 MB/s	 1000000 B/op	    2000 allocs/op
BenchmarkNoMem   	     100	     50000 ns/op
PASS
ok  	distcolor	1.234s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	// Duplicate lines keep the minimum ns/op; the -8 suffix is stripped.
	r, ok := got["BenchmarkSparseListColor/random-sparse/n1e4"]
	if !ok {
		t.Fatalf("missing subtest benchmark: %v", got)
	}
	if r.NsPerOp != 20400039 || r.AllocsPerOp != 91158 {
		t.Fatalf("got %+v, want ns=20400039 allocs=91158", r)
	}
	// A line without -benchmem fields records allocs as -1 (unknown).
	if r := got["BenchmarkNoMem"]; r.NsPerOp != 50000 || r.AllocsPerOp != -1 {
		t.Fatalf("no-mem line parsed as %+v", r)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("expected error on input with no benchmark lines")
	}
}

func TestCheck(t *testing.T) {
	baseline := map[string]Result{
		"A": {NsPerOp: 100},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100}, // retired: absent from results, never gated
	}
	results := map[string]Result{
		"A": {NsPerOp: 149}, // within 1.5x
		"B": {NsPerOp: 151}, // regressed
	}
	bad := check(results, baseline, 1.5, 0)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "B:") {
		t.Fatalf("check = %v, want exactly one regression on B", bad)
	}
	if bad := check(results, baseline, 2.0, 0); len(bad) != 0 {
		t.Fatalf("check at 2.0x = %v, want none", bad)
	}
}

// TestCheckMissingBaseline checks that a gated result without a baseline
// entry fails -check by name, at any tolerance, rather than going ungated.
func TestCheckMissingBaseline(t *testing.T) {
	baseline := map[string]Result{"A": {NsPerOp: 100, AllocsPerOp: 10}}
	results := map[string]Result{
		"A":       {NsPerOp: 100, AllocsPerOp: 10},
		"New/one": {NsPerOp: 1, AllocsPerOp: 0},
		"New/two": {NsPerOp: 1, AllocsPerOp: 0},
	}
	for _, tol := range [][2]float64{{1.5, 0}, {0, 1.10}, {100, 100}} {
		bad := check(results, baseline, tol[0], tol[1])
		if len(bad) != 2 || bad[0] != "New/one: no baseline entry" || bad[1] != "New/two: no baseline entry" {
			t.Fatalf("check at %v = %v, want both New results named as missing", tol, bad)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	data, _ := json.Marshal(map[string]Result{"BenchmarkRunSyncDelivery": {NsPerOp: 1e9, AllocsPerOp: 1e6}})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	err := run(strings.NewReader(sampleOutput), &stderr, options{checkPath: path, tolerance: 1.5, allocsTolerance: 1.10})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkNoMem: no baseline entry") ||
		!strings.Contains(err.Error(), "BenchmarkSparseListColor/random-sparse/n1e4: no baseline entry") {
		t.Fatalf("run -check = %v, want the two unrecorded benchmarks named", err)
	}
}

func TestCheckAllocs(t *testing.T) {
	baseline := map[string]Result{
		"A": {NsPerOp: 100, AllocsPerOp: 1000},
		"B": {NsPerOp: 100, AllocsPerOp: 1000},
		"C": {NsPerOp: 100, AllocsPerOp: 0},
		"D": {NsPerOp: 100, AllocsPerOp: 0},
		"E": {NsPerOp: 100, AllocsPerOp: -1}, // recorded without -benchmem
		"F": {NsPerOp: 100, AllocsPerOp: 10},
	}
	results := map[string]Result{
		"A": {NsPerOp: 900, AllocsPerOp: 1100},            // at 1.10x allocs; ns/op ungated
		"B": {NsPerOp: 100, AllocsPerOp: 1101},            // over 1.10x
		"C": {NsPerOp: 100, AllocsPerOp: allocsSlack - 1}, // under the slack: forgiven
		"D": {NsPerOp: 100, AllocsPerOp: allocsSlack},     // past the slack
		"E": {NsPerOp: 100, AllocsPerOp: 5000},
		"F": {NsPerOp: 100, AllocsPerOp: -1}, // this run without -benchmem
	}
	bad := check(results, baseline, 0, 1.10)
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "B:") || !strings.HasPrefix(bad[1], "D:") {
		t.Fatalf("check = %v, want allocs regressions on B and D only", bad)
	}
	// With both gates on, A fails on ns/op and B on allocs/op.
	bad = check(results, baseline, 1.5, 1.10)
	if len(bad) != 3 || !strings.Contains(bad[0], "ns/op") || !strings.Contains(bad[1], "allocs/op") {
		t.Fatalf("check with both gates = %v", bad)
	}
	// The default, allocs tolerance 0, gates nothing but ns/op.
	if bad := check(results, baseline, 10, 0); len(bad) != 0 {
		t.Fatalf("check without allocs gate = %v, want none", bad)
	}
}

func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_PR.json")
	var stderr strings.Builder
	if err := run(strings.NewReader(sampleOutput), &stderr, options{outPath: out, tolerance: 1.5}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 3 {
		t.Fatalf("round-tripped %d benchmarks, want 3", len(decoded))
	}
	// The file it wrote passes as its own baseline...
	if err := run(strings.NewReader(sampleOutput), &stderr, options{checkPath: out, tolerance: 1.5}); err != nil {
		t.Fatal(err)
	}
	// ...with its allocs/op gated too...
	if err := run(strings.NewReader(sampleOutput), &stderr, options{checkPath: out, allocsTolerance: 1.10}); err != nil {
		t.Fatal(err)
	}
	// ...refuses a check that gates nothing...
	if err := run(strings.NewReader(sampleOutput), &stderr, options{checkPath: out}); err == nil {
		t.Fatal("expected an error for -check with neither gate on")
	}
	// ...and fails against a baseline it beats by more than the tolerance.
	tight, _ := json.Marshal(map[string]Result{"BenchmarkNoMem": {NsPerOp: 10}})
	tightPath := filepath.Join(dir, "tight.json")
	if err := os.WriteFile(tightPath, tight, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleOutput), &stderr, options{checkPath: tightPath, tolerance: 1.5}); err == nil {
		t.Fatal("expected regression failure against tight baseline")
	}
}

func TestCheckOverhead(t *testing.T) {
	results := map[string]Result{
		"BenchmarkFast":           {NsPerOp: 100},
		"BenchmarkFastObs":        {NsPerOp: 104}, // within 1.05x
		"BenchmarkSlow/case":      {NsPerOp: 100},
		"BenchmarkSlowObs/case":   {NsPerOp: 106}, // over, sub-benchmark path preserved
		"BenchmarkOrphanObs":      {NsPerOp: 999}, // no twin: ignored
		"BenchmarkObs":            {NsPerOp: 1},   // bare "BenchmarkObs" is not a suffixed twin
		"BenchmarkObserveLatency": {NsPerOp: 1},   // "Obs" mid-name is not a suffix
	}
	bad := checkOverhead(results, "Obs", 1.05)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "BenchmarkSlowObs/case:") {
		t.Fatalf("checkOverhead = %v, want exactly one failure on BenchmarkSlowObs/case", bad)
	}
	if bad := checkOverhead(results, "Obs", 1.10); len(bad) != 0 {
		t.Fatalf("checkOverhead at 1.10x = %v, want none", bad)
	}
}

func TestCheckFaster(t *testing.T) {
	results := map[string]Result{
		"BenchmarkGraphLoad/dcsr-mmap": {NsPerOp: 50},
		"BenchmarkGraphLoad/text":      {NsPerOp: 1000},
	}
	if err := checkFaster(results, "BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text", 10); err != nil {
		t.Fatalf("20x actual speedup failed a 10x gate: %v", err)
	}
	if err := checkFaster(results, "BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text", 30); err == nil {
		t.Fatal("20x actual speedup passed a 30x gate")
	}
	// Missing names must fail loudly, not pass vacuously.
	if err := checkFaster(results, "BenchmarkRenamed<BenchmarkGraphLoad/text", 2); err == nil {
		t.Fatal("missing fast benchmark passed the gate")
	}
	if err := checkFaster(results, "BenchmarkGraphLoad/dcsr-mmap<BenchmarkGone", 2); err == nil {
		t.Fatal("missing slow benchmark passed the gate")
	}
	// Malformed claims and nonpositive ratios are usage errors.
	if err := checkFaster(results, "just-one-name", 2); err == nil {
		t.Fatal("claim without '<' passed")
	}
	if err := checkFaster(results, "BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text", 0); err == nil {
		t.Fatal("zero speedup passed")
	}
}

func TestRunFasterMode(t *testing.T) {
	const paired = `BenchmarkGraphLoad/text-8       5  10000000 ns/op
BenchmarkGraphLoad/dcsr-mmap-8  5    100000 ns/op
`
	var stderr strings.Builder
	claim := "BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text"
	if err := run(strings.NewReader(paired), &stderr, options{tolerance: 1.5, faster: claim, speedup: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "holds at") {
		t.Fatalf("no confirmation line on stderr: %q", stderr.String())
	}
	if err := run(strings.NewReader(paired), &stderr, options{tolerance: 1.5, faster: claim, speedup: 500}); err == nil {
		t.Fatal("100x actual speedup passed a 500x gate")
	}
}

func TestRunOverheadMode(t *testing.T) {
	const paired = `BenchmarkRunSyncDelivery-8     5  1000000 ns/op
BenchmarkRunSyncDeliveryObs-8  5  1200000 ns/op
`
	var stderr strings.Builder
	if err := run(strings.NewReader(paired), &stderr, options{tolerance: 1.5, overhead: "Obs", overheadTol: 1.05}); err == nil {
		t.Fatal("expected 1.2x overhead to fail the 1.05x gate")
	}
	if err := run(strings.NewReader(paired), &stderr, options{tolerance: 1.5, overhead: "Obs", overheadTol: 1.25}); err != nil {
		t.Fatal(err)
	}
}
