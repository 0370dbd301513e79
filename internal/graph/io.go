package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
)

// WriteTo serializes the graph in the plain edge-list format: the first
// line is the vertex count, then one "u v" edge per line (u < v, sorted).
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintf(bw, "%d\n", g.N())
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, e := range g.Edges() {
		k, err = fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadEdgeList streams the plain edge-list format into a Graph: the first
// non-comment line is the vertex count n, then one "u v" edge per line
// (0-based, whitespace-separated). Blank lines and lines starting with '#'
// are ignored. The CSR is built by counting sort (csrSink): memory is the
// CSR plus an 8-byte-per-edge log. Duplicate edges are found after the
// scan, so a duplicate before a malformed line reports the malformed line.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListWithin(r, math.MaxInt64)
}

// ReadEdgeListWithin is ReadEdgeList failing with a *WeightError as soon
// as n, then n + 2·(edges so far), passes maxWeight.
func ReadEdgeListWithin(r io.Reader, maxWeight int64) (*Graph, error) {
	var s *csrSink
	err := scanEdgeList(r,
		func(n int) error {
			if int64(n) > maxWeight {
				return &WeightError{Weight: int64(n), Limit: maxWeight}
			}
			s = &csrSink{n: n, limit: maxWeight, offsets: make([]int32, n+1)}
			return nil
		},
		func(u, v int) error { return s.add(u, v) })
	if err != nil {
		return nil, err
	}
	return s.graph()
}

// WeightError is ReadEdgeListWithin's rejection, at the n + 2m read so far.
type WeightError struct{ Weight, Limit int64 }

func (e *WeightError) Error() string {
	return fmt.Sprintf("graph: weight %d exceeds the limit %d", e.Weight, e.Limit)
}

// scanEdgeList is the streaming tokenizer behind ReadEdgeList, shared with
// the external-memory converter (ConvertEdgeList) so both parse the exact
// same dialect: header(n) is called once for the declared vertex count,
// then edge(u, v) per edge line. Callback errors are wrapped with the line
// number. An input with no header line at all is an error. A line that
// pairLine rejects takes the TrimSpace/parseInt path, which sets the dialect.
func scanEdgeList(r io.Reader, header func(n int) error, edge func(u, v int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line, sawHeader := 0, false
	for sc.Scan() {
		line++
		if u, v, ok := pairLine(sc.Bytes()); ok && sawHeader {
			if err := edge(u, v); err != nil {
				return fmt.Errorf("graph: line %d: %w", line, err)
			}
			continue
		}
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		if !sawHeader {
			n, rest, err := parseInt(text)
			if err != nil || len(bytes.TrimSpace(rest)) != 0 {
				return fmt.Errorf("graph: line %d: vertex count expected, got %q", line, text)
			}
			if n > math.MaxInt32 {
				// Adjacency ids are int32; a larger declared count can never
				// be a valid graph and would allocate the offsets array for a
				// count no edge line could reference.
				return fmt.Errorf("graph: line %d: vertex count %d exceeds int32 range", line, n)
			}
			if err := header(n); err != nil {
				return fmt.Errorf("graph: line %d: %w", line, err)
			}
			sawHeader = true
			continue
		}
		u, rest, err1 := parseInt(text)
		v, rest, err2 := parseInt(bytes.TrimSpace(rest))
		if err1 != nil || err2 != nil || len(bytes.TrimSpace(rest)) != 0 {
			return fmt.Errorf("graph: line %d: want 'u v', got %q", line, text)
		}
		if err := edge(u, v); err != nil {
			return fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawHeader {
		return fmt.Errorf("graph: empty input")
	}
	return nil
}

// pairLine reads a "u v" line in one pass: ASCII whitespace as TrimSpace
// defines it, integers of at most 18 digits (no overflow). Other lines,
// non-ASCII ones included, are left to the TrimSpace/parseInt path.
func pairLine(s []byte) (u, v int, ok bool) {
	i := skipSpace(s, 0)
	u, j := leadingInt(s, i)
	k := skipSpace(s, j)
	v, e := leadingInt(s, k)
	return u, v, j > i && k > j && e > k && skipSpace(s, e) == len(s)
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i]-'\t' <= '\r'-'\t') {
		i++
	}
	return i
}

// leadingInt reads the digits at s[i:]; more than 18 read as none.
func leadingInt(s []byte, i int) (n, end int) {
	for end = i; end < len(s) && s[end]-'0' <= 9; end++ {
		n = n*10 + int(s[end]-'0')
	}
	if end-i > 18 {
		return 0, i
	}
	return n, end
}

// parseInt reads a leading non-negative decimal integer from s and returns
// it with the unconsumed remainder.
func parseInt(s []byte) (int, []byte, error) {
	i, n := 0, 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		d := int(s[i] - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, s, fmt.Errorf("graph: integer overflow")
		}
		n = n*10 + d
		i++
	}
	if i == 0 {
		return 0, s, fmt.Errorf("graph: integer expected")
	}
	return n, s[i:], nil
}
