// Command distcolor colors a generated or loaded graph with any algorithm
// of the reproduction and reports colors used, LOCAL rounds and the
// per-phase breakdown.
//
// Examples:
//
//	distcolor -gen apollonian:2000 -algo planar6
//	distcolor -gen regular:500,3 -algo sparse -d 3 -seed 7
//	distcolor -gen forests:1000,2 -algo arboricity -a 2
//	distcolor -gen forests:1000,2 -algo be -a 2 -eps 0.5
//	distcolor -gen apollonian:100000 -algo planar6 -timeout 2s -progress
//	distcolor -gen apollonian:100000 -algo planar6 -trace trace.json
//	distcolor -gen apollonian:100000 -algo planar6 -spans spans.json
//	distcolor -gen klein:5x9 -algo chromatic
//	distcolor -load graph.txt -algo gps7
//	distcolor convert -in graph.txt -out graph.dcsr -mem-budget 64MiB
//	distcolor -load graph.dcsr -algo planar6 -o colors.bin
//	distcolor -list-algos
//	distcolor -smoke
//
// Graph files: first line "n", then one "u v" edge per line (0-based) — or
// a .dcsr binary graph (see `distcolor convert`), which -load detects by
// signature and page-maps instead of parsing. -o writes the coloring to a
// file; -oformat picks text (one color per line) or bin (raw little-endian
// int32, the server's binary colors wire format).
//
// The set of algorithms, their parameters and their defaults come from the
// distcolor Algorithm registry, shared with the public API and the
// distcolor-serve HTTP server (cmd/distcolor-serve), so a CLI run and a
// server job with the same config produce identical results. -timeout
// bounds a run (cancellation lands within one LOCAL round); -progress
// streams live per-phase round totals and rounds/s + messages/s rates to
// stderr; -trace writes the run's full round trace (the same TraceReport
// JSON the server's GET /v1/jobs/{id}/trace returns) to a file; -spans
// writes the run as a span tree in Chrome trace-event JSON — open the file
// as-is in ui.perfetto.dev. Span IDs are seeded from -seed, so the export
// is deterministic for a fixed invocation.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distcolor"
	"distcolor/internal/density"
	"distcolor/internal/graph"
	"distcolor/internal/lower"
	"distcolor/internal/obs"
	"distcolor/internal/serve/runcfg"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		err = runConvert(os.Args[2:])
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distcolor:", err)
		os.Exit(1)
	}
}

func run() error {
	genSpec := flag.String("gen", "", "generator spec, e.g. apollonian:1000, grid:20x30, regular:500,3, forests:800,2, klein:5x9, cyclepower:25, cycle:50, path:50, gallai:6")
	load := flag.String("load", "", "load an edge-list file instead of generating")
	algo := flag.String("algo", "planar6", "algorithm: "+strings.Join(runcfg.Algorithms(), "|")+"|chromatic|stats")
	d := flag.Int("d", 0, "sparsity parameter d for -algo sparse (0 = default)")
	a := flag.Int("a", 0, "arboricity for -algo arboricity/be (0 = default)")
	eps := flag.Float64("eps", 0, "ε for -algo be (0 = default)")
	genus := flag.Int("genus", 0, "Euler genus for -algo genus (0 = default)")
	seed := flag.Uint64("seed", 1, "seed for generation and ID shuffling")
	listSize := flag.Int("listsize", 0, "use random lists of this size (0 = uniform palette)")
	palette := flag.Int("palette", 0, "palette size for random lists (0 = 2·listsize+2)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "stream live phase progress and round/message rates to stderr")
	traceOut := flag.String("trace", "", "write the run's round trace as JSON to this file")
	spansOut := flag.String("spans", "", "write the run's span trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
	colorsOut := flag.String("o", "", "write the coloring to this file")
	colorsFormat := flag.String("oformat", "auto", "-o format: text (one color per line), bin (raw little-endian int32), auto (.bin → bin)")
	verbose := flag.Bool("v", false, "print the per-phase round breakdown")
	listAlgos := flag.Bool("list-algos", false, "print the registered algorithms with their predicted round bounds (at n=10⁶, Δ=100) and exit")
	smoke := flag.Bool("smoke", false, "run every registered algorithm on its tiny smoke graph and exit")
	flag.Parse()

	if *listAlgos {
		for _, a := range distcolor.Algorithms() {
			bound := "-"
			if a.RoundBound != nil {
				// predicted round ceiling at the canonical reference point
				bound = fmt.Sprintf("≤%d", a.RoundBound(distcolor.RoundBoundRefN, distcolor.RoundBoundRefMaxDeg))
			}
			fmt.Printf("%-14s %-10s %s\n", a.Name, bound, a.Doc)
		}
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *smoke {
		return runSmoke(ctx)
	}

	var g *graph.Graph
	var err error
	switch {
	case *load != "":
		g, err = loadGraph(*load)
	case *genSpec != "":
		g, err = runcfg.Generate(*genSpec, *seed)
	default:
		return fmt.Errorf("need -gen or -load (try -gen apollonian:1000)")
	}
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d Δ=%d avgdeg=%.2f\n", g.N(), g.M(), g.MaxDegree(), g.AverageDegree())

	switch *algo {
	case "chromatic":
		chi, cerr := lower.ChromaticNumber(g, 8)
		if cerr != nil {
			return cerr
		}
		fmt.Printf("chromatic number: %d\n", chi)
		return nil
	case "stats":
		return printStats(g)
	}

	cfg := runcfg.Config{
		Algo:     *algo,
		D:        *d,
		A:        *a,
		Eps:      *eps,
		Genus:    *genus,
		Seed:     *seed,
		ListSize: *listSize,
		Palette:  *palette,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	var observe []distcolor.Option
	var trace *distcolor.RoundTrace
	if *progress || *traceOut != "" || *spansOut != "" {
		// One recorder serves all three: the progress printer reads its
		// running totals for live rates, -trace serializes it at the end,
		// and -spans turns its phase wall timing into a span tree.
		trace = &distcolor.RoundTrace{}
		observe = append(observe, distcolor.WithTrace(trace))
	}
	if *progress {
		observe = append(observe, distcolor.WithProgress(newProgressPrinter(trace).observe))
	}
	start := time.Now()
	res, err := runcfg.Run(ctx, g, cfg, observe...)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	var rep *distcolor.TraceReport
	if trace != nil {
		rep = trace.Report(cfg.Algo)
	}
	if *spansOut != "" {
		// Spans first: the export mints the run's trace ID, which the
		// -trace report then carries too.
		if werr := writeSpans(*spansOut, cfg.Algo, *seed, rep, start); werr != nil {
			if err == nil {
				return werr
			}
			fmt.Fprintln(os.Stderr, "distcolor: writing spans:", werr)
		}
	}
	if *traceOut != "" {
		// An aborted run still leaves its partial trace: those rounds ran.
		if werr := writeTrace(*traceOut, rep); werr != nil {
			if err == nil {
				return werr
			}
			fmt.Fprintln(os.Stderr, "distcolor: writing trace:", werr)
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("run aborted after -timeout %s", *timeout)
		}
		return err
	}
	fmt.Printf("outcome: %s (%.0f ms)\n", res.Summary(), float64(time.Since(start))/float64(time.Millisecond))
	if *verbose {
		for _, p := range res.Phases {
			fmt.Printf("  %-28s %8d rounds\n", p.Name, p.Rounds)
		}
	}
	if *colorsOut != "" {
		if res.Colors == nil {
			return fmt.Errorf("no coloring to write to %s (run found a clique certificate)", *colorsOut)
		}
		if err := writeColors(*colorsOut, *colorsFormat, res.Colors); err != nil {
			return err
		}
	}
	return nil
}

// writeColors serializes a coloring: "text" is one decimal color per line,
// "bin" is the raw little-endian int32 array the server's binary colors
// endpoint speaks, "auto" picks bin for a .bin path and text otherwise.
func writeColors(path, format string, colors []int) error {
	if format == "auto" {
		if strings.HasSuffix(path, ".bin") {
			format = "bin"
		} else {
			format = "text"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	switch format {
	case "text":
		for _, c := range colors {
			fmt.Fprintln(w, c)
		}
	case "bin":
		var buf [4]byte
		for _, c := range colors {
			binary.LittleEndian.PutUint32(buf[:], uint32(int32(c)))
			w.Write(buf[:])
		}
	default:
		f.Close()
		return fmt.Errorf("unknown -oformat %q (want text, bin or auto)", format)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressPrinter renders live phase progress on stderr, throttled so the
// (very frequent) one-round layered-pass charges do not flood the terminal.
// It also shows the rounds/s and messages/s rates over the last print
// interval, read from the run's trace; progress events are trace updates
// on the run goroutine, so reading the recorder here is safe.
type progressPrinter struct {
	trace      *distcolor.RoundTrace
	last       time.Time
	lastRounds int
	lastMsgs   int
}

func newProgressPrinter(trace *distcolor.RoundTrace) *progressPrinter {
	return &progressPrinter{trace: trace, last: time.Now()}
}

func (p *progressPrinter) observe(e distcolor.PhaseEvent) {
	now := time.Now()
	dt := now.Sub(p.last)
	if dt < 100*time.Millisecond {
		return
	}
	p.last = now
	rounds, msgs := e.Rounds, p.trace.Messages()
	fmt.Fprintf(os.Stderr, "\r[%s] %-24s %10d rounds %9.0f rounds/s %12.0f msg/s",
		e.Algorithm, e.Phase, rounds,
		float64(rounds-p.lastRounds)/dt.Seconds(),
		float64(msgs-p.lastMsgs)/dt.Seconds())
	p.lastRounds, p.lastMsgs = rounds, msgs
}

// writeSpans exports one CLI run as a Chrome trace-event file: a root
// span covering the whole run with one engine.<phase> child per timed
// phase of the trace report, exactly the span tree the server records for
// a job. The tracer is seeded from -seed, so IDs (and the trace ID
// stamped onto rep) are deterministic per invocation.
func writeSpans(path, algo string, seed uint64, rep *distcolor.TraceReport, start time.Time) error {
	tracer := obs.NewTracer(obs.TracerOptions{Seed: seed})
	root := tracer.StartRoot("distcolor "+algo, obs.SpanContext{})
	root.Start = start
	root.SetAttr("algo", algo)
	root.SetAttr("rounds", fmt.Sprint(rep.Rounds))
	root.SetAttr("messages", fmt.Sprint(rep.Messages))
	runcfg.RecordEngineSpans(tracer, root.Context(), rep)
	root.End()
	rep.TraceID = root.Trace.String()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tracer.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace serializes a trace report to path as indented JSON — the same
// schema GET /v1/jobs/{id}/trace serves.
func writeTrace(path string, rep *distcolor.TraceReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSmoke runs every registered algorithm on its own tiny smoke graph
// (Algorithm.Smoke) with default parameters, through the same wire path the
// server uses, and verifies each outcome. One registry, one loop — a new
// Register call is automatically covered.
func runSmoke(ctx context.Context) error {
	failures := 0
	for _, a := range distcolor.Algorithms() {
		if a.Smoke == "" {
			fmt.Printf("skip %-14s (no smoke spec)\n", a.Name)
			continue
		}
		g, err := runcfg.Generate(a.Smoke, 1)
		if err != nil {
			fmt.Printf("FAIL %-14s generating %q: %v\n", a.Name, a.Smoke, err)
			failures++
			continue
		}
		cfg := runcfg.Config{Algo: a.Name, Seed: 1}.WithDefaults()
		start := time.Now()
		res, err := runcfg.Run(ctx, g, cfg)
		if err != nil {
			fmt.Printf("FAIL %-14s on %s: %v\n", a.Name, a.Smoke, err)
			failures++
			continue
		}
		fmt.Printf("ok   %-14s %-16s %s (%.0f ms)\n", a.Name, a.Smoke, res.Summary(),
			float64(time.Since(start))/float64(time.Millisecond))
	}
	if failures > 0 {
		return fmt.Errorf("%d smoke failure(s)", failures)
	}
	return nil
}

func printStats(g *graph.Graph) error {
	fmt.Printf("degeneracy: %d\n", g.DegeneracyOrder().Degeneracy)
	fmt.Printf("girth: %d\n", g.Girth(nil))
	gallai, _ := g.IsGallaiForest(nil, nil)
	fmt.Printf("gallai forest: %v\n", gallai)
	bip, _ := g.IsBipartite(nil)
	fmt.Printf("bipartite: %v\n", bip)
	if g.N() <= 5000 {
		num, den, _ := density.Mad(g)
		fmt.Printf("mad: %d/%d = %.3f\n", num, den, float64(num)/float64(den))
	}
	if g.N() <= 800 {
		fmt.Printf("arboricity: %d\n", density.Arboricity(g))
	}
	return nil
}

// loadGraph reads either format by sniffing the first four bytes: a .dcsr
// binary graph is page-mapped in place (falling back to a validated read
// where mmap is unavailable), anything else parses as a text edge list.
func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	if n, _ := io.ReadFull(f, magic[:]); n == 4 && string(magic[:]) == graph.DCSRMagic {
		mg, err := graph.OpenDCSR(path)
		if err != nil {
			return nil, err
		}
		// The mapping lives as long as the graph (process lifetime here);
		// the graph pins it, so no explicit Close.
		return mg.Graph, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return graph.ReadEdgeList(f)
}
