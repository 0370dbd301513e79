package graph

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// declaredCount extracts the vertex count the input's first non-comment line
// declares, mirroring ReadEdgeList's header scan. The fuzz target uses it to
// skip inputs that would legitimately allocate for a huge declared count:
// the reader allocates its 4(n+1)-byte offsets at the header, and the
// Builder-based oracle a 24n-byte spine of row slices, so a tiny input
// claiming 10^9 vertices is a memory bomb by design, not a parser bug worth
// exploring.
func declaredCount(data []byte) (int, bool) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		text := bytes.TrimSpace(line)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		n, _, err := parseInt(text)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// readerRuns are the ways the fuzz target runs ReadEdgeListWithin: the
// default block size at the test's GOMAXPROCS, then blocks of a few bytes,
// so nearly every line boundary is a block boundary, on 1, 2 and 4 Ps.
var readerRuns = []struct{ block, procs int }{{0, 0}, {5, 1}, {3, 2}, {7, 4}}

// readEdgeListRun is ReadEdgeListWithin at block size block (0: the
// default) on procs Ps (0: as set).
func readEdgeListRun(r io.Reader, limit int64, block, procs int) (*Graph, error) {
	if block > 0 {
		defer func(b int) { blockSize = b }(blockSize)
		blockSize = block
	}
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	return ReadEdgeListWithin(r, limit)
}

// FuzzReadEdgeList throws arbitrary bytes at the edge-list parser and holds
// every input to the format's invariants: the parse must never panic; at
// every run of readerRuns it must accept exactly what the Builder-based
// oracle refReadEdgeListWithin accepts at the same weight limit, with
// byte-identical offsets and neighbors, and reject with the oracle's error
// text, line numbers and WeightError included (duplicate edges, which the
// oracle reports at their line and the counting sort only after the scan,
// excepted); and an accepted graph must survive a WriteTo/ReadEdgeList
// round trip bit-identically (WriteTo emits the canonical form, so parsing
// it back must reproduce N, M, and the sorted edge set exactly).
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"3\n0 1\n1 2\n",          // plain valid list
		"# comment\n\n4\n0 3\n",  // comments and blank lines
		"3\r\n0 1\r\n",           // CRLF line endings
		"5\n0 1\n0",              // truncated edge line
		"5\n0 1\n0 1\n",          // duplicate edge
		"5\n2 2\n",               // self-loop
		"2\n0 99\n",              // endpoint out of range
		"99999999999999999999\n", // vertex count overflows int
		"4294967296\n",           // vertex count beyond int32
		"3\n0 1 extra\n",         // trailing garbage on an edge line
		"not a number\n",         // malformed header
		"",                       // empty input
		"0\n",                    // zero vertices, no edges
		"6\n0 1\n# mid comment\n\n2 3\n",
		"3\n1\n",                           // second endpoint missing
		"3\n2 \t\n",                        // second endpoint missing, trailing space
		"4\n2 3\n0 3\n3 1\n1 0\n",          // rows fill out of order
		"5\n0 4\n1 2\n4 3\n2 0\n4 0\n",     // duplicate not adjacent in input order
		"3\n0 1\n0 1\n0 x\n",               // duplicate before a malformed line
		"3\n\v0\f1\r\n\u00a01 2\u00a0\n",   // ASCII and Unicode whitespace
		"3\n0 1\u2028\n",                   // non-ASCII trailing byte
		"3\n0 0000000000000000000000001\n", // long zero-padded endpoint
		"3\n0 99999999999999999999\n",      // endpoint overflows int
		"12\n0 11\n10 11\n2 3\n4 5\n",      // lines cut across block boundaries
		"4\r\n0 1\r\n1 2\r\n2 3\r\n",       // CRLFs cut across block boundaries
		"# a comment longer than a block\n# another\n4\n0 1\n", // header in a later block
		"5\n0 1\n1 2\n2 3\n3 4\n1 0\n",                         // duplicate across blocks
		"3\n0 x\n0 1\n1 y\n",                                   // two errors in different blocks
	}
	for _, s := range seeds {
		f.Add([]byte(s), int64(math.MaxInt64))
	}
	// The weight limit n + 2m: passed at the header, at an edge in a
	// later block than the header, and before an error in a later block.
	f.Add([]byte("5\n0 1\n"), int64(4))
	f.Add([]byte("5\n0 1\n1 2\n2 3\n3 4\n"), int64(10))
	f.Add([]byte("5\n0 1\n1 2\n2 3\n3 4\n0 x\n"), int64(9))
	f.Add([]byte("5\n0 1\n1 2\n2 3\n3 4\n0 1\n"), int64(12))
	f.Add([]byte("5\n0 1\n1 2\n2 3\n3 4\n"), int64(13))
	f.Fuzz(func(t *testing.T, data []byte, limit int64) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if n, ok := declaredCount(data); ok && n > 1<<16 {
			t.Skip("declared vertex count too large to allocate")
		}
		g := matchOracle(t, data, limit)
		if g == nil {
			return
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo failed on parsed graph: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing canonical form failed: %v\ninput: %q\ncanonical: %q", err, data, buf.Bytes())
		}
		sameCSR(t, g2, g)
	})
}

// matchOracle runs ReadEdgeListWithin on data at every run of readerRuns
// and fails t unless each run accepts exactly what refReadEdgeListWithin
// accepts, with the same CSR, or rejects with its error text (duplicate
// edges excepted). It returns the graph read, nil on a rejection.
func matchOracle(t *testing.T, data []byte, limit int64) *Graph {
	t.Helper()
	want, werr := refReadEdgeListWithin(bytes.NewReader(data), limit)
	var g *Graph
	for _, run := range readerRuns {
		got, err := readEdgeListRun(bytes.NewReader(data), limit, run.block, run.procs)
		if (err == nil) != (werr == nil) {
			t.Fatalf("blocks of %d on %d Ps: accept/reject differs from the oracle on %.200q: got %v, oracle %v",
				run.block, run.procs, data, err, werr)
		}
		if err != nil {
			dup := func(e error) bool { return strings.Contains(e.Error(), "duplicate edge") }
			if dup(err) && !dup(werr) || !dup(werr) && err.Error() != werr.Error() {
				t.Fatalf("blocks of %d on %d Ps: error differs from the oracle on %.200q:\ngot    %v\noracle %v",
					run.block, run.procs, data, err, werr)
			}
			continue
		}
		sameCSR(t, got, want)
		g = got
	}
	return g
}
