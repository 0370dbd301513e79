package graph

import (
	"bytes"
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

// FuzzReadEdgeList throws arbitrary bytes at the edge-list parser and holds
// every input to the format's invariants: the parse must never panic; it
// must accept exactly what the Builder-based oracle refReadEdgeList
// accepts, with byte-identical offsets and neighbors, and reject with the
// oracle's error text (duplicate edges, which the oracle reports at their
// line and the counting sort only after the scan, excepted); and an
// accepted graph must survive a WriteTo/ReadEdgeList round trip
// bit-identically (WriteTo emits the canonical form, so parsing it back
// must reproduce N, M, and the sorted edge set exactly).
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if n, ok := declaredCount(data); ok && n > 1<<16 {
			t.Skip("declared vertex count too large to allocate")
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		want, werr := refReadEdgeList(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("accept/reject differs from the oracle on %q: got %v, oracle %v", data, err, werr)
		}
		if err != nil {
			dup := func(e error) bool { return strings.Contains(e.Error(), "duplicate edge") }
			if dup(err) && !dup(werr) || !dup(werr) && err.Error() != werr.Error() {
				t.Fatalf("error differs from the oracle on %q:\ngot    %v\noracle %v", data, err, werr)
			}
			return
		}
		sameCSR(t, g, want)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo failed on parsed graph: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing canonical form failed: %v\ninput: %q\ncanonical: %q", err, data, buf.Bytes())
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
		}
		e1, e2 := g.Edges(), g2.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("round trip changed edge count: %d -> %d", len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, e1[i], e2[i])
			}
		}
	})
}
