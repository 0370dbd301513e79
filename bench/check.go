package main

import (
	"encoding/binary"
	"fmt"

	"distcolor"
	"distcolor/internal/graph"
)

// checkColoring verifies colors against the harness's own copy of the
// graph: one color per vertex, every color inside the algorithm's palette
// {0, …, palette-1}, and no edge with both ends the same color.
func checkColoring(g *graph.Graph, colors []int, palette int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("%d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c >= palette {
			return fmt.Errorf("vertex %d has color %d outside the %d-color palette", v, c, palette)
		}
	}
	return distcolor.Verify(g, colors, nil)
}

// checkRounds verifies a run's LOCAL round count against the algorithm's
// declared RoundBound for g.
func checkRounds(algo string, g *graph.Graph, rounds int) error {
	a, err := distcolor.Lookup(algo)
	if err != nil {
		return err
	}
	if a.RoundBound == nil {
		return nil
	}
	if b := a.RoundBound(g.N(), g.MaxDegree()); rounds > b {
		return fmt.Errorf("%s used %d LOCAL rounds, above its RoundBound %d", algo, rounds, b)
	}
	return nil
}

// decodeColors parses the body of GET /v1/jobs/{id}/colors under Accept:
// application/octet-stream — one little-endian int32 per vertex.
func decodeColors(body []byte, n int) ([]int, error) {
	if len(body) != 4*n {
		return nil, fmt.Errorf("colors body has %d bytes, want %d for %d vertices", len(body), 4*n, n)
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = int(int32(binary.LittleEndian.Uint32(body[4*i:])))
	}
	return colors, nil
}

// encodeColors is the inverse of decodeColors: the colors file format of the
// batch workloads and the server's binary color encoding.
func encodeColors(colors []int) []byte {
	buf := make([]byte, 0, 4*len(colors))
	for _, c := range colors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c)))
	}
	return buf
}
