package graph

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ConvertStats reports what ConvertEdgeList produced and how hard it had
// to work to stay inside its memory budget.
type ConvertStats struct {
	N, M, MaxDeg  int
	ScatterPasses int   // neighbor-slab passes over the input (1 = fit in budget)
	BytesWritten  int64 // total .dcsr file size
}

// DefaultConvertMemBudget is the neighbor-slab budget used when
// ConvertEdgeList is given a non-positive one.
const DefaultConvertMemBudget = 256 << 20

// convertMinBudget keeps the scatter slab from degenerating below a page.
const convertMinBudget = 4096

// ConvertEdgeList converts a text edge list to the .dcsr binary format in
// bounded memory — the external-memory path for graphs whose adjacency
// does not fit in RAM as a CSR. open must return a fresh reader
// over the same input each call (the input is scanned multiple times);
// out receives the .dcsr image and must support seeking (the header is
// written last, once the data checksum is known).
//
// The algorithm is a classic two-phase counting sort, bucketed to a
// memory budget: pass 1 streams the input once to count degrees and
// validate endpoints, producing the offsets array by prefix sum; then the
// vertex range is cut into buckets whose neighbor slab fits memBudget
// bytes, and one scatter pass per bucket re-streams the input, placing
// each incident endpoint at its final CSR position before the slab is
// row-sorted, checked for duplicate edges, and appended to the output.
// Peak memory is the offsets array (4(n+1) bytes, irreducible — it is
// the output's spine) plus one slab of at most memBudget bytes. The
// output is byte-identical to Graph.WriteDCSR on the same graph.
func ConvertEdgeList(open func() (io.ReadCloser, error), out io.WriteSeeker, memBudget int64) (ConvertStats, error) {
	if memBudget <= 0 {
		memBudget = DefaultConvertMemBudget
	}
	if memBudget < convertMinBudget {
		memBudget = convertMinBudget
	}

	// Pass 1: count degrees, validate every edge's endpoints, find m.
	var (
		n       int
		offsets []int32 // degree of v in offsets[v+1] until the prefix sum
		m       int64
		stats   ConvertStats
	)
	in, err := open()
	if err != nil {
		return stats, err
	}
	err = scanEdgeList(in,
		func(count int) error {
			n = count
			if n > math.MaxInt32-1 {
				return fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
			}
			offsets = make([]int32, n+1)
			return nil
		},
		func(u, v int) error {
			if err := checkEdge(n, u, v, m+1); err != nil {
				return err
			}
			m++
			offsets[u+1]++
			offsets[v+1]++
			return nil
		})
	in.Close()
	if err != nil {
		return stats, err
	}

	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, int(offsets[v+1]))
		offsets[v+1] += offsets[v]
	}
	stats.N, stats.M, stats.MaxDeg = n, int(m), maxDeg

	// The data region streams through the CRC on its way out, so the
	// header (written last, at offset 0) can carry the data checksum
	// without a separate read-back pass.
	if _, err := out.Seek(dcsrHeaderSize, io.SeekStart); err != nil {
		return stats, err
	}
	crc := crc32.NewIEEE()
	w := io.MultiWriter(crc, out)
	if err := writeInt32sLE(w, offsets); err != nil {
		return stats, err
	}
	offsetsOff, neighborsOff, total := dcsrLayout(n, int(m))
	if pad := neighborsOff - (offsetsOff + int64(n+1)*4); pad > 0 {
		if _, err := w.Write(dcsrPad[:pad]); err != nil {
			return stats, err
		}
	}

	// Cut [0,n) into buckets whose neighbor slab fits the budget. A
	// single vertex whose row alone exceeds the budget still gets its own
	// bucket — the slab briefly overshoots rather than failing.
	maxEntries := int64(memBudget / 4)
	var slab []int32
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && int64(offsets[hi+1]-offsets[lo]) <= maxEntries {
			hi++
		}
		stats.ScatterPasses++
		base := offsets[lo]
		entries := int(offsets[hi] - base)
		if cap(slab) < entries {
			slab = make([]int32, entries)
		}
		slab = slab[:entries]
		cursor := make([]int32, hi-lo)
		copy(cursor, offsets[lo:hi])
		for i := range cursor {
			cursor[i] -= base
		}

		in, err := open()
		if err != nil {
			return stats, err
		}
		var m2 int64
		err = scanEdgeList(in,
			func(count int) error {
				if count != n {
					return fmt.Errorf("graph: input changed between passes (n %d -> %d)", n, count)
				}
				return nil
			},
			func(u, v int) error {
				m2++
				if lo <= u && u < hi {
					c := cursor[u-lo]
					if c >= offsets[u+1]-base { // row overflow: input grew a degree
						return fmt.Errorf("graph: input changed between passes (vertex %d degree grew)", u)
					}
					slab[c] = int32(v)
					cursor[u-lo] = c + 1
				}
				if lo <= v && v < hi {
					c := cursor[v-lo]
					if c >= offsets[v+1]-base {
						return fmt.Errorf("graph: input changed between passes (vertex %d degree grew)", v)
					}
					slab[c] = int32(u)
					cursor[v-lo] = c + 1
				}
				return nil
			})
		in.Close()
		if err != nil {
			return stats, err
		}
		if m2 != m {
			return stats, fmt.Errorf("graph: input changed between passes (m %d -> %d)", m, m2)
		}
		for v := lo; v < hi; v++ {
			if cursor[v-lo] != offsets[v+1]-base {
				return stats, fmt.Errorf("graph: input changed between passes (vertex %d degree shrank)", v)
			}
		}
		if _, err := sortRows(offsets[lo:hi+1], slab, lo); err != nil {
			return stats, err
		}
		if err := writeInt32sLE(w, slab); err != nil {
			return stats, err
		}
		lo = hi
	}

	if _, err := out.Seek(0, io.SeekStart); err != nil {
		return stats, err
	}
	h := encodeDCSRHeader(n, int(m), maxDeg, crc.Sum32())
	if _, err := out.Write(h[:]); err != nil {
		return stats, err
	}
	stats.BytesWritten = total
	return stats, nil
}
