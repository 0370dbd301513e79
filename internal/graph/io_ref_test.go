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
// the TrimSpace/parseInt tokenizer refScanEdgeList.
func refReadEdgeList(r io.Reader) (*Graph, error) {
	var b *Builder
	err := refScanEdgeList(r,
		func(n int) error { b = NewBuilder(n); return nil },
		func(u, v int) error { return b.AddEdge(u, v) })
	if err != nil {
		return nil, err
	}
	return b.Graph(), nil
}

// refScanEdgeList is scanEdgeList before its one-pass edge-line reader:
// every line is trimmed and parsed by TrimSpace and parseInt.
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
