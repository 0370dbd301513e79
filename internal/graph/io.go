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
// are ignored. The input is consumed line by line through a bufio.Scanner
// feeding a Builder directly — no intermediate edge slice is materialized,
// so memory is bounded by the adjacency structure itself. Lines are parsed
// byte-wise without per-line string allocation.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	var b *Builder
	err := scanEdgeList(r,
		func(n int) error { b = NewBuilder(n); return nil },
		func(u, v int) error { return b.AddEdge(u, v) })
	if err != nil {
		return nil, err
	}
	return b.Graph(), nil
}

// scanEdgeList is the streaming tokenizer behind ReadEdgeList, shared with
// the external-memory converter (ConvertEdgeList) so both parse the exact
// same dialect: header(n) is called once for the declared vertex count,
// then edge(u, v) per edge line. Callback errors are wrapped with the line
// number. An input with no header line at all is an error.
func scanEdgeList(r io.Reader, header func(n int) error, edge func(u, v int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line, sawHeader := 0, false
	for sc.Scan() {
		line++
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
				// be a valid graph and would allocate the builder spine for a
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
