package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
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
