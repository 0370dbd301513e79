package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"distcolor"
	"distcolor/internal/graph"
	"distcolor/internal/serve/runcfg"
)

// batchWorkload colors one fixed graph through the library, one op after
// another: open its .dcsr image with graph.OpenDCSR, run the algorithm with
// the op's seed, and write the colors to a file as little-endian int32.
type batchWorkload struct {
	name    string
	spec    string // generator spec of the graph (internal/gen syntax)
	algo    string
	d       int // sparsity parameter of "sparse"; 0 for other algorithms
	palette int // colors the algorithm may use
	slo     time.Duration
	// probeRef is the probe's time on the graph in a quiet spell of the
	// reference machine (the fastest seen while the benchmark was
	// defined); it fixes the scale of the reference-speed times.
	probeRef time.Duration
}

// The graphs of record. instanceSeed fixes each generated graph, so the
// LOCAL round counts are exact functions of the op seeds, which the
// workload seed draws: --seed varies the ID assignment (the LOCAL model's
// adversarial input), not the instance.
const instanceSeed = 1

var (
	colorPlanar = batchWorkload{
		name: "color-planar", spec: "apollonian:100000", algo: "planar6",
		palette: 6, slo: 1500 * time.Millisecond,
		probeRef: 55 * time.Millisecond,
	}
	colorSparse = batchWorkload{
		name: "color-sparse", spec: "regular:100000,3", algo: "sparse", d: 3,
		palette: 3, slo: 1000 * time.Millisecond,
		probeRef: 45 * time.Millisecond,
	}
)

// setups is how many times a run repeats its set-up; setup_s is their
// median.
const setups = 5

// opTail is the quantile every workload reports as op_ms_tail. A 30 s run
// completes 40–60 batch ops, 10–15 of them beyond p75; a higher quantile
// over so few ops moves with whichever runs caught a stall of the host.
const opTail = 0.75

// fixedOps is how many leading ops give the exact counts (local_rounds,
// rounds.*): their seeds depend on the workload seed alone, however many
// ops the run completes.
const fixedOps = 8

func (b batchWorkload) workload() workload { return workload{name: b.name, run: b.run} }

type batchState struct {
	g      *graph.Graph // the harness's own copy, for checking
	dcsr   string
	colors string
}

// batchOp is one op's stage timings, allocation and outcome. check is the
// harness's own verification, outside the op's time; probe is the probe
// after the op, and scale turns its wall times into reference-speed ones.
type batchOp struct {
	open, run, encode, total, check time.Duration
	probe                           time.Duration
	scale                           float64
	allocBytes, allocObjects        uint64
	rounds                          int
	phases                          map[string]int
	colorsUsed                      int
	err                             error
}

func (b batchWorkload) run(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult(b.name, cfg)
	st := &batchState{
		dcsr:   filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d.dcsr", b.name, os.Getpid())),
		colors: filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d.colors", b.name, os.Getpid())),
	}
	defer os.Remove(st.dcsr)
	defer os.Remove(st.colors)
	var setupTimes []float64
	n := setups
	if cfg.trace {
		n = 1
	}
	g, err := runcfg.Generate(b.spec, instanceSeed)
	if err != nil {
		return nil, err
	}
	pr := newProbe(g, b.probeRef)
	before := pr.run()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := b.setup(ctx, cfg, st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0)
		after := pr.run()
		setupTimes = append(setupTimes, wall.Seconds()*pr.scale(before, after))
		before = after
	}

	if !cfg.trace {
		ops, err := b.measure(ctx, st, pr, cfg.seed, cfg.seconds, res)
		if err != nil {
			return nil, err
		}
		res.set("setup_s", median(setupTimes), "s", len(setupTimes))
		b.endToEnd(res, ops)
		res.fillMissing(endToEnd)
	} else {
		plain, err := b.measure(ctx, st, pr, cfg.seed, cfg.seconds/2, res)
		if err != nil {
			return nil, err
		}
		res.set("mem.peak_rss_mb", peakRSS(os.Getpid()), "MiB", 0)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := b.measure(ctx, st, pr, cfg.seed, cfg.seconds/2, res)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		b.perLayer(res, plain, traced, attribute(samples))
		res.fillMissing(perLayer())
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setup generates the graph, writes its .dcsr image and runs one warm-up op.
func (b batchWorkload) setup(ctx context.Context, cfg runConfig, st *batchState) error {
	g, err := runcfg.Generate(b.spec, instanceSeed)
	if err != nil {
		return err
	}
	st.g = g
	if err := writeDCSR(st.dcsr, g); err != nil {
		return err
	}
	warm := seedList(cfg.seed, streamWarmup, 1)[0]
	if o := b.op(ctx, st, warm); o.err != nil {
		return fmt.Errorf("warm-up op: %w", o.err)
	}
	return nil
}

func writeDCSR(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := g.WriteDCSR(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeColors(path string, colors []int) error {
	return os.WriteFile(path, encodeColors(colors), 0o644)
}

// measure runs ops until d has passed, op i using seed i of the workload
// seed's list, with a probe before the first op and after every op.
func (b batchWorkload) measure(ctx context.Context, st *batchState, pr *probe, seed uint64, d time.Duration, res *result) ([]batchOp, error) {
	var ops []batchOp
	list := seedList(seed, streamOps, 64)
	before := pr.run()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i == len(list) {
			list = seedList(seed, streamOps, 2*len(list))
		}
		o := b.op(ctx, st, list[i])
		o.probe = pr.run()
		o.scale = pr.scale(before, o.probe)
		before = o.probe
		res.Attempted++
		if o.err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, o.err))
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// readAllocs returns the process's cumulative heap allocation, in bytes and
// in objects.
func readAllocs() (uint64, uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func (b batchWorkload) options(seed uint64) []distcolor.Option {
	opts := []distcolor.Option{distcolor.WithSeed(seed)}
	if b.d > 0 {
		opts = append(opts, distcolor.WithD(b.d))
	}
	return opts
}

func (b batchWorkload) op(ctx context.Context, st *batchState, seed uint64) batchOp {
	var o batchOp
	bytes0, objects0 := readAllocs()
	t0 := time.Now()
	mg, err := graph.OpenDCSR(st.dcsr)
	if err != nil {
		o.err = err
		return o
	}
	t1 := time.Now()
	col, err := distcolor.Run(ctx, mg.Graph, b.algo, b.options(seed)...)
	t2 := time.Now()
	if err == nil {
		err = writeColors(st.colors, col.Colors)
	}
	t3 := time.Now()
	mg.Close()
	o.total = time.Since(t0)
	bytes1, objects1 := readAllocs()
	o.open, o.run, o.encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	o.allocBytes, o.allocObjects = bytes1-bytes0, objects1-objects0
	if err != nil {
		o.err = err
		return o
	}
	o.rounds = col.Rounds
	o.phases = map[string]int{}
	for _, p := range col.Phases {
		o.phases[p.Name] += p.Rounds
	}
	o.colorsUsed = distcolor.NumColors(col.Colors)
	pprof.Do(ctx, pprof.Labels(benchLabelKey, checkLabelValue), func(context.Context) {
		t := time.Now()
		o.err = b.check(st, col)
		o.check = time.Since(t)
	})
	return o
}

func (b batchWorkload) check(st *batchState, col *distcolor.Coloring) error {
	if col.Clique != nil {
		return fmt.Errorf("%s returned a clique certificate instead of a coloring", b.algo)
	}
	if err := checkColoring(st.g, col.Colors, b.palette); err != nil {
		return err
	}
	return checkRounds(b.algo, st.g, col.Rounds)
}

// durations collects one field of the successful ops, in milliseconds.
func durations(ops []batchOp, f func(batchOp) time.Duration) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil {
			out = append(out, msOf(f(o)))
		}
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// refTimes are the successful ops' latencies at reference speed, in ms.
func refTimes(ops []batchOp) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil {
			out = append(out, msOf(o.total)*o.scale)
		}
	}
	return out
}

func (b batchWorkload) endToEnd(res *result, ops []batchOp) {
	total := refTimes(ops)
	res.set("op_ms_p50", median(total), "ms", len(total))
	res.set("op_ms_tail", quantile(total, opTail), "ms", len(total))
	warnThinTail(b.name, len(total), opTail)
	var colors, rounds, alloc []float64
	inSLO := 0
	for i, o := range ops {
		alloc = append(alloc, float64(o.allocBytes))
		if o.err != nil {
			continue
		}
		colors = append(colors, float64(o.colorsUsed))
		if i < fixedOps {
			rounds = append(rounds, float64(o.rounds))
		}
		if msOf(o.total)*o.scale <= msOf(b.slo) {
			inSLO++
		}
	}
	res.set("colors_used", maxOf(colors), "count", len(colors))
	res.set("local_rounds", mean(rounds), "rounds", len(rounds))
	res.set("alloc_mb_per_op", median(alloc)/(1<<20), "MiB", len(alloc))
	res.set("slo_ratio", float64(inSLO)/float64(len(ops)), "ratio", len(ops))
}

func (b batchWorkload) perLayer(res *result, plain, traced []batchOp, cpu map[string]int64) {
	stage := func(name string, f func(batchOp) time.Duration) {
		xs := durations(traced, f)
		res.set(name, median(xs), "ms", len(xs))
	}
	stage("graph.open_ms_p50", func(o batchOp) time.Duration { return o.open })
	stage("algo.run_ms_p50", func(o batchOp) time.Duration { return o.run })
	stage("colors.encode_ms_p50", func(o batchOp) time.Duration { return o.encode })
	stage("seqcolor.verify_ms_p50", func(o batchOp) time.Duration { return o.check })
	wall := durations(plain, func(o batchOp) time.Duration { return o.total })
	res.set("wall.op_ms_p50", median(wall), "ms", len(wall))
	var probes []float64
	for _, o := range append(slices.Clip(plain), traced...) {
		probes = append(probes, msOf(o.probe))
	}
	res.set("machine.probe_ms_p50", median(probes), "ms", len(probes))
	res.set("trace.overhead_ratio", median(refTimes(traced))/median(refTimes(plain)), "ratio", len(traced))
	var objects []float64
	var phases []map[string]int
	for i, o := range traced {
		objects = append(objects, float64(o.allocObjects))
		if o.err == nil && i < fixedOps {
			phases = append(phases, o.phases)
		}
	}
	res.set("alloc.objects_per_op", median(objects), "count", len(objects))
	setRounds(res, phases)
	setProfile(res, cpu, len(traced))
}

// setRounds reports each ledger phase's mean round count over the fixed op
// set, the same ops whose totals make local_rounds.
func setRounds(res *result, phases []map[string]int) {
	names := map[string]bool{}
	for _, p := range roundPhases {
		names[p] = true
	}
	for _, ph := range phases {
		for p := range ph {
			names[p] = true
		}
	}
	for p := range names {
		var xs []float64
		for _, ph := range phases {
			xs = append(xs, float64(ph[p]))
		}
		res.set(roundsMetric(p), mean(xs), "rounds", len(xs))
	}
}

// setProfile reports each layer's exclusive CPU time per op.
func setProfile(res *result, cpu map[string]int64, ops int) {
	for _, l := range profLayers() {
		res.set("prof."+l+"_ms", float64(cpu[l])/1e6/float64(max(ops, 1)), "ms", ops)
	}
}

// warnThinTail notes on standard error when a tail percentile rests on
// fewer than minBeyond samples.
func warnThinTail(name string, n int, q float64) {
	if beyond(n, q) < minBeyond {
		fmt.Fprintf(os.Stderr, "# %s: only %d of %d samples lie beyond the p%g tail\n", name, beyond(n, q), n, 100*q)
	}
}
