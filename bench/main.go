// Command bench is distcolor's benchmark of record. It drives three
// workloads from graph bytes to verified colors — two through the library
// (graph.OpenDCSR, distcolor.Run, distcolor.Verify) and one through the
// distcolor-serve HTTP API — timing the calls into each layer from outside,
// checking every output, and printing every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":44,"failed":0,"metrics":{"op_ms_p50":{"value":451.2,"unit":"ms"},…}}
//
// Usage (bench/run.sh builds the harness and the server, then runs this):
//
//	bench --workload color-planar --seed 1 --seconds 30 --trace 0
//	bench --workload all -repeat 3 -out a.json
//	bench compare a.json b.json
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json from an
// untraced run; --trace 1 reports the per-layer metrics from a run split
// into an untraced half and a traced half (CPU profile, server spans). See
// README.md for the workloads, the metric catalog and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit caps one invocation: the benchmark contract requires an exit
// within 180 s, and a wedged server must not hold the harness past it.
const runLimit = 170 * time.Second

// The reference machine has two cores. The harness runs on one: on the
// batch workloads a second P buys the algorithms no speed (the LOCAL
// engine's workers and the collector only contend with whatever else
// shares the host) and makes op times swing several times wider. The
// server it launches gets both, with as many workers, so that a job in
// flight does not queue the next one behind it.
const (
	procs       = 1
	serverProcs = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: every per-op seed and graph choice derives from it")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from an untraced and a traced half")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, …")
	out := fs.String("out", "", "also write the full result (run header, every run, sample counts) as JSON to this file")
	serverBin := fs.String("server-bin", "", "distcolor-serve binary for the serve-* workloads")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for graph images and color files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareCmd(fs.Args()[1:], stdout)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown command %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 2 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be ≥ 2 and -repeat ≥ 1")
		return 2
	}
	var selected []workload
	for _, w := range defaultWorkloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(procs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit*time.Duration(len(selected)**repeat))
	defer cancel()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workdir: *workdir,
		start:   subprocessServer(*serverBin),
	}
	hdr := newHeader(*seed, *seconds)
	hdr.print(os.Stderr)
	var results []*result
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			cfg.seed = *seed + uint64(i)
			res, err := w.run(ctx, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (seed %d): %v\n", w.name, cfg.seed, err)
				return 1
			}
			res.print(stdout)
			results = append(results, res)
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, hdr, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	last := summarize(results)
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// runConfig is what one workload run needs besides the workload itself.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
	start   startFunc
}

// workload is one benchmark input set: run performs one run of it.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

func workloadNames() []string {
	var names []string
	for _, w := range defaultWorkloads() {
		names = append(names, w.name)
	}
	return names
}

// defaultWorkloads are the workloads of record, at full size.
func defaultWorkloads() []workload {
	return []workload{
		colorPlanar.workload(),
		colorSparse.workload(),
		serveCold.workload(),
	}
}

// measure is one reported metric. Samples is the number of observations
// behind a percentile, median or mean (0 for single readings).
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]measure `json:"metrics"`
}

func newResult(name string, cfg runConfig) *result {
	r := &result{Workload: name, Seed: cfg.seed, Metrics: map[string]measure{}}
	if cfg.trace {
		r.Trace = 1
	}
	return r
}

// set records a metric. A statistic of no samples (NaN) is recorded as 0;
// such a run has failed operations and is not correct anyway.
func (r *result) set(name string, value float64, unit string, samples int) {
	if math.IsNaN(value) {
		value = 0
	}
	r.Metrics[name] = measure{Value: value, Unit: unit, Samples: samples}
}

// maxErrors bounds the check failures kept verbatim in a result.
const maxErrors = 5

// fail records one failed operation.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d trace=%d attempted=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "#   check failed: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s", r.Workload, n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " (n=%d)", m.Samples)
		}
		fmt.Fprintln(w)
	}
}

// summaryLine is the result line; its metrics carry value and unit only.
// For a single run they are the run's; for several runs each metric is the
// median over runs of one workload, keyed "workload/metric".
type summaryLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

func summarize(results []*result) summaryLine {
	s := summaryLine{Correct: true, Metrics: map[string]measure{}}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Correct = s.Correct && r.Correct
	}
	if len(results) == 1 {
		for n, m := range results[0].Metrics {
			s.Metrics[n] = measure{Value: m.Value, Unit: m.Unit}
		}
		return s
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range results {
		for n, m := range r.Metrics {
			key := r.Workload + "/" + n
			vals[key] = append(vals[key], m.Value)
			units[key] = m.Unit
		}
	}
	for k, v := range vals {
		s.Metrics[k] = measure{Value: median(v), Unit: units[k]}
	}
	return s
}

// header records the machine and settings a result file was measured with.
type header struct {
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	ServerProcs int    `json:"server_gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GitRev      string `json:"git_rev,omitempty"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
}

func newHeader(seed uint64, seconds int) header {
	h := header{
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  procs,
		ServerProcs: serverProcs,
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		Seed:        seed,
		Seconds:     seconds,
	}
	// The benchmark may run from an exported tree with no git metadata;
	// the revision is then absent (and git must not find an enclosing
	// repository instead).
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitRev = strings.TrimSpace(string(rev))
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# %s %s GOMAXPROCS=%d server GOMAXPROCS=%d nproc=%d cpu=%q rev=%s seed=%d seconds=%d\n",
		h.GoVersion, h.GOARCH, h.GOMAXPROCS, h.ServerProcs, h.NumCPU, h.CPUModel, h.GitRev, h.Seed, h.Seconds)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultFile is the -out document that compare reads.
type resultFile struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func writeResultFile(path string, h header, runs []*result) error {
	raw, err := json.MarshalIndent(resultFile{Header: h, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
