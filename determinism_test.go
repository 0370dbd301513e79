package distcolor_test

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"distcolor"
	"distcolor/internal/serve/runcfg"
)

// gomaxprocsLevels is the parallelism sweep: the degenerate single-worker
// engine, the smallest genuinely parallel one, and whatever the host has.
func gomaxprocsLevels() []int {
	levels := []int{1, 2, runtime.NumCPU()}
	sort.Ints(levels)
	out := levels[:1]
	for _, l := range levels[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// fingerprint is everything a run reports that must be independent of the
// engine's parallelism: the assignment (or certificate), the round totals,
// the per-phase breakdown and the engine's message accounting.
type fingerprint struct {
	Colors   []int
	Clique   []int
	Rounds   int
	Phases   []distcolor.Phase
	Messages int
}

// TestAlgorithmsDeterministicAcrossGOMAXPROCS runs every registered
// algorithm on its own smoke graph at GOMAXPROCS ∈ {1, 2, NumCPU} and
// requires bit-identical results: the serving layer's job coalescing and
// the paper's reported round counts both assume a run is a pure function
// of (graph, config, seed), no matter how many workers the message plane
// spreads over.
func TestAlgorithmsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	levels := gomaxprocsLevels()
	for _, a := range distcolor.Algorithms() {
		if a.Smoke == "" {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			g, err := runcfg.Generate(a.Smoke, 1)
			if err != nil {
				t.Fatalf("generating %q: %v", a.Smoke, err)
			}
			var ref fingerprint
			for i, p := range levels {
				old := runtime.GOMAXPROCS(p)
				col, err := distcolor.Run(context.Background(), g, a.Name, distcolor.WithSeed(3))
				runtime.GOMAXPROCS(old)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", p, err)
				}
				fp := fingerprint{col.Colors, col.Clique, col.Rounds, col.Phases, col.Messages}
				if i == 0 {
					ref = fp
					continue
				}
				if !reflect.DeepEqual(fp, ref) {
					t.Errorf("results differ between GOMAXPROCS=%d and %d:\n  %+v\nvs\n  %+v",
						levels[0], p, ref, fp)
				}
			}
		})
	}
}

// TestRunAllocatesSameEveryCall checks that a run owns all of its scratch:
// with the collector off, at GOMAXPROCS 1 and 2, five calls after a
// warm-up, three in a row and then two each after two collections, must
// allocate the same number of heap bytes. Scratch held between calls, in
// a pool or a cache, makes a call after a collection allocate more, and
// scratch last bound to a smaller graph regrows by chance.
//
// At GOMAXPROCS 2 the runtime itself may add bytes to one call: its tiny
// allocator packs small pointer-free objects into a 16-byte block per P,
// so a call that moves to another P mid-run takes one more block, and a
// stop-the-world may start a new M. Neither repeats, so a series of five
// is taken up to three times; scratch kept between calls shows in every
// series.
func TestRunAllocatesSameEveryCall(t *testing.T) {
	cases := []struct {
		algo, spec string
		opts       []distcolor.Option
	}{
		{"planar6", "apollonian:5000", nil},
		{"sparse", "regular:5000,3", []distcolor.Option{distcolor.WithD(3)}},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		g, err := runcfg.Generate(c.spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]distcolor.Option{distcolor.WithSeed(7)}, c.opts...)
		run := func() {
			if _, err := distcolor.Run(context.Background(), g, c.algo, opts...); err != nil {
				t.Fatalf("%s on %s: %v", c.algo, c.spec, err)
			}
		}
		for _, p := range []int{1, 2} {
			old := runtime.GOMAXPROCS(p)
			run() // warm-up
			var got []uint64
			for range 3 {
				if got = callAllocs(run); !slices.ContainsFunc(got, func(b uint64) bool { return b != got[0] }) {
					break
				}
			}
			runtime.GOMAXPROCS(old)
			if slices.ContainsFunc(got, func(b uint64) bool { return b != got[0] }) {
				t.Errorf("%s on %s at GOMAXPROCS=%d: calls allocated %v bytes, want all equal", c.algo, c.spec, p, got)
			}
		}
	}
}

// callAllocs returns the heap bytes each of five calls of run allocates,
// the last two each after two collections. It reads MemStats.TotalAlloc,
// which ReadMemStats takes after flushing every P's allocation cache. The
// /gc/heap/allocs:bytes metric counts the same bytes, but only as a span
// leaves a P's cache, so it misses the slots a call leaves in cached spans.
func callAllocs(run func()) []uint64 {
	var got []uint64
	var ms runtime.MemStats
	for i := range 5 {
		if i >= 3 {
			runtime.GC()
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		got = append(got, ms.TotalAlloc-before)
	}
	return got
}
