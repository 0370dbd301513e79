package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// chunkReader yields at most k bytes per Read, exercising the scanner's
// incremental refill path.
type chunkReader struct {
	r io.Reader
	k int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.k {
		p = p[:c.k]
	}
	return c.r.Read(p)
}

func TestReadEdgeListStreams(t *testing.T) {
	var buf bytes.Buffer
	const n = 500
	fmt.Fprintf(&buf, "# generated\n%d\n", n)
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&buf, "%d %d\n", i, i+1)
	}
	g, err := ReadEdgeList(&chunkReader{r: &buf, k: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n || g.M() != n-1 {
		t.Fatalf("got n=%d m=%d, want %d/%d", g.N(), g.M(), n, n-1)
	}
	for i := 0; i+1 < n; i++ {
		if !g.HasEdge(i, i+1) {
			t.Fatalf("missing edge (%d,%d)", i, i+1)
		}
	}
}

func TestReadEdgeListWhitespaceAndComments(t *testing.T) {
	in := "  # leading comment\n\n\t 4 \n0\t1\n  2 3 \r\n# done\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"negative count":  "-3\n",
		"count overflow":  "99999999999999999999\n",
		"trailing field":  "3\n0 1 junk\n",
		"negative vertex": "3\n0 -1\n",
		"duplicate edge":  "3\n0 1\n1 0\n",
		"missing field":   "3\n0\n",
		"bare endpoint":   "3\n1\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestEdgeRejectionsMatchConverter holds the in-memory reader and the
// external-memory converter to one wording for the edge errors they share.
func TestEdgeRejectionsMatchConverter(t *testing.T) {
	cases := map[string]struct{ text, want string }{
		"self-loop":          {"3\n0 1\n2 2\n", "graph: line 3: graph: self-loop at 2"},
		"out of range":       {"3\n0 1\n1 3\n", "graph: line 3: graph: edge (1,3) out of range [0,3)"},
		"duplicate":          {"4\n0 1\n2 3\n1 0\n", "graph: duplicate edge (0,1)"},
		"duplicate, reorder": {"4\n3 2\n0 1\n1 3\n2 3\n", "graph: duplicate edge (2,3)"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, rerr := ReadEdgeList(strings.NewReader(tc.text))
			_, _, cerr := convertToBytes(t, tc.text, 0)
			if rerr == nil || cerr == nil {
				t.Fatalf("accepted: ReadEdgeList %v, ConvertEdgeList %v", rerr, cerr)
			}
			if rerr.Error() != tc.want || cerr.Error() != tc.want {
				t.Fatalf("ReadEdgeList %q, ConvertEdgeList %q, want %q", rerr, cerr, tc.want)
			}
		})
	}
}

// TestCheckEdgeInt32Limit pins checkEdge, the edge check of both readers,
// at the int32 CSR limit: 2m = MaxInt32-1 entries fit, one more edge does
// not.
func TestCheckEdgeInt32Limit(t *testing.T) {
	const last = math.MaxInt32 / 2
	if err := checkEdge(3, 0, 1, last); err != nil {
		t.Fatalf("m=%d: %v", last, err)
	}
	err := checkEdge(3, 0, 1, last+1)
	if want := "graph: 2147483648 adjacency entries exceed the int32 CSR limit"; err == nil || err.Error() != want {
		t.Fatalf("m=%d: %v, want %q", last+1, err, want)
	}
	if err := checkEdge(3, 1, 1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := checkEdge(3, 0, 3, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

// TestReadEdgeListWithinStopsAtLimit checks the weight budget fails at the
// header, before the offsets are allocated, and at the first edge that
// carries n+2m past it.
func TestReadEdgeListWithinStopsAtLimit(t *testing.T) {
	cases := []struct {
		text   string
		limit  int64
		weight int64 // 0: no WeightError
	}{
		{"4000000\n", 1000, 4000000},
		{"4\n0 1\n1 2\n2 3\n", 10, 0},
		{"4\n0 1\n1 2\n2 3\n", 9, 10},
		{"4\n0 1\n1 2\n2 3\n0 0\n", 10, 0},
	}
	for _, tc := range cases {
		_, err := ReadEdgeListWithin(strings.NewReader(tc.text), tc.limit)
		var we *WeightError
		switch {
		case tc.weight == 0 && errors.As(err, &we):
			t.Errorf("%q within %d: %v", tc.text, tc.limit, err)
		case tc.weight != 0 && (!errors.As(err, &we) || we.Weight != tc.weight || we.Limit != tc.limit):
			t.Errorf("%q within %d: %v, want weight %d", tc.text, tc.limit, err, tc.weight)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := ReadEdgeListWithin(strings.NewReader("2000000000\n"), 1000); err == nil {
		t.Fatal("accepted a header past the limit")
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", got)
	}
}

func TestNewFromPairs(t *testing.T) {
	pairs := [][2]int{{0, 1}, {3, 2}, {1, 2}}
	g, err := NewFromPairs(4, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 || g.MaxDegree() != 2 {
		t.Fatalf("got %v maxdeg=%d", g, g.MaxDegree())
	}
	for _, p := range pairs {
		if !g.HasEdge(p[0], p[1]) {
			t.Fatalf("missing edge %v", p)
		}
	}
	// Neighbor views must be sorted, like every Builder-built graph.
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("vertex %d neighbors unsorted: %v", v, nbrs)
			}
		}
	}
	if _, err := NewFromPairs(3, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewFromPairs(3, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := NewFromPairs(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	empty, err := NewFromPairs(2, nil)
	if err != nil || empty.N() != 2 || empty.M() != 0 {
		t.Fatalf("empty pairs: %v %v", empty, err)
	}
}

// TestReadEdgeListLongLines holds the block reader to the oracle's
// bufio.Scanner at its 1 MiB line limit, at every run of readerRuns: a
// line of maxLine bytes or more fails with bufio.ErrTooLong once the lines
// before it are read, one byte shorter it is read.
func TestReadEdgeListLongLines(t *testing.T) {
	cases := map[string]string{
		"over the limit":         "3\n0 1\n" + strings.Repeat(" ", maxLine) + "\n0 x\n",
		"just under the limit":   "3\n0 1\n" + strings.Repeat(" ", maxLine-4) + "1 2\n0 2",
		"error before it":        "3\n0 x\n" + strings.Repeat("#", maxLine) + "\n",
		"unterminated last line": "3\n0 1\n" + strings.Repeat("1", maxLine) + strings.Repeat(" ", 9),
		"long header comment":    "#" + strings.Repeat(" ", maxLine-2) + "\n3\n0 1\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) { matchOracle(t, []byte(text), math.MaxInt64) })
	}
}

// TestReadEdgeListReadError checks that a reader's error ends the read as
// with the oracle: the lines before it, an unterminated last one included,
// are read first and their failure wins.
func TestReadEdgeListReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, text := range []string{"", "# c\n", "5\n", "5\n0 1\n1 2", "5\n0 1\n0 x\n1 2\n", "5\n0 1\n2 3\n3 4\n"} {
		reader := func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)) }
		_, werr := refReadEdgeList(reader())
		for _, run := range readerRuns {
			if _, err := readEdgeListRun(reader(), math.MaxInt64, run.block, run.procs); err == nil || err.Error() != werr.Error() {
				t.Errorf("%q, blocks of %d on %d Ps: %v, oracle %v", text, run.block, run.procs, err, werr)
			}
		}
	}
}

// TestReadEdgeListFailureLeavesNoGoroutine fails ReadEdgeListWithin in
// every way, on 4 Ps with blocks of a few bytes, and checks that the
// workers are gone once the calls return.
func TestReadEdgeListFailureLeavesNoGoroutine(t *testing.T) {
	defer func(b int) { blockSize = b }(blockSize)
	blockSize = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	lines := strings.Repeat("0 1\n", 20)
	cases := []struct {
		r     io.Reader
		limit int64
	}{
		{strings.NewReader("5\n" + lines + "0 x\n" + lines), math.MaxInt64},
		{strings.NewReader("5\n1 2\n" + lines), math.MaxInt64},
		{strings.NewReader("5\n" + strings.Repeat("1 2\n", 20)), 9},
		{strings.NewReader("5\n0 2\n9 1\n" + lines), math.MaxInt64},
		{strings.NewReader("5\n0 1\n1 2\n2 3\n1 0\n"), math.MaxInt64},
		{strings.NewReader("5\n0 1\n" + strings.Repeat(" ", maxLine)), math.MaxInt64},
		{io.MultiReader(strings.NewReader("5\n0 1\n1 2\n"), iotest.ErrReader(errors.New("boom"))), math.MaxInt64},
	}
	for i, tc := range cases {
		if _, err := ReadEdgeListWithin(tc.r, tc.limit); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed calls, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestReadEdgeListConcurrentCalls runs reads of different texts at once,
// at blocks of a few bytes, so calls trade spare blocks all the time; each
// must still read its own graph.
func TestReadEdgeListConcurrentCalls(t *testing.T) {
	defer func(b int) { blockSize = b }(blockSize)
	blockSize = 16
	texts := make([][]byte, 4)
	for i := range texts {
		b := NewBuilder(60 + 10*i)
		for u := range b.N() {
			for v := u + 1; v < b.N(); v += 1 + (u*7+v*i)%5 {
				b.AddEdgeOK(u, v)
			}
		}
		var buf bytes.Buffer
		if _, err := b.Graph().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		texts[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for i, text := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				var out bytes.Buffer
				g, err := ReadEdgeList(bytes.NewReader(text))
				if err == nil {
					_, err = g.WriteTo(&out)
				}
				if err != nil || !bytes.Equal(out.Bytes(), text) {
					t.Errorf("text %d read back differently (%v)", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
