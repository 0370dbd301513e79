package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
)

// refReadEdgeList is the Builder-based reader the counting-sort
// ReadEdgeList replaced, kept as its oracle: one growing slice per vertex,
// a linear duplicate scan per edge (so duplicates fail at their line), and
// the TrimSpace/parseInt tokenizer refScanEdgeList over a bufio.Scanner.
func refReadEdgeList(r io.Reader) (*Graph, error) {
	return refReadEdgeListWithin(r, math.MaxInt64)
}

// refReadEdgeListWithin is refReadEdgeList with ReadEdgeListWithin's weight
// limit, checked per line in input order: at the header, then per edge
// after the range, self-loop and int32 checks and before the duplicate
// check.
func refReadEdgeListWithin(r io.Reader, limit int64) (*Graph, error) {
	var b *Builder
	m := int64(0)
	err := refScanEdgeList(r,
		func(n int) error {
			if int64(n) > limit {
				return &WeightError{Weight: int64(n), Limit: limit}
			}
			b = NewBuilder(n)
			return nil
		},
		func(u, v int) error {
			if err := checkEdge(b.N(), u, v, m+1); err != nil {
				return err
			}
			if w := int64(b.N()) + 2*(m+1); w > limit {
				return &WeightError{Weight: w, Limit: limit}
			}
			m++
			return b.AddEdge(u, v)
		})
	if err != nil {
		return nil, err
	}
	return b.Graph(), nil
}

// refWriteTo is the Graph.WriteTo that materialized Edges() and formatted
// each edge with fmt, kept as the oracle of the CSR-walking writer.
func refWriteTo(g *Graph, w io.Writer) (int64, error) {
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

// refScanEdgeList is the one-goroutine bufio.Scanner tokenizer before the
// block reader and its one-pass edge-line reader: every line is trimmed and
// parsed by TrimSpace and parseInt, and a line of 1 MiB or more fails with
// bufio.ErrTooLong.
func refScanEdgeList(r io.Reader, header func(n int) error, edge func(u, v int) error) error {
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
