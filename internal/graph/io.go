package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
)

// WriteTo serializes the graph in the plain edge-list format: the first
// line is the vertex count, then one "u v" edge per line (u < v, sorted).
// It walks the CSR rows and formats into one reused buffer.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	buf := strconv.AppendInt(make([]byte, 0, 64<<10), int64(g.N()), 10)
	buf = append(buf, '\n')
	var n int64
	for u := range g.N() {
		for _, v := range g.Neighbors(u) {
			if int(v) <= u {
				continue
			}
			if len(buf) > cap(buf)-48 {
				k, err := w.Write(buf)
				if n += int64(k); err != nil {
					return n, err
				}
				buf = buf[:0]
			}
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, '\n')
		}
	}
	k, err := w.Write(buf)
	return n + int64(k), err
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
//
// The calling goroutine reads the input in blocks of whole lines
// (lineBlocks) and parses the header. Up to GOMAXPROCS workers tokenize the
// blocks after it, each into the block's own pair buffer. The caller
// retires the blocks in input order, counting their endpoints and
// appending their pairs to the sink's log, and stops at the first failure
// in input order, so the error and its line are the one-goroutine
// reader's. Row placement and sortRows then run per vertex range on as
// many workers. Block buffers are recycled, so memory is the CSR plus the
// 8-byte-per-edge log, as with one goroutine.
func ReadEdgeListWithin(r io.Reader, maxWeight int64) (*Graph, error) {
	lb := lineBlocks{r: r, line: 1}
	hdr := getBlock()
	n, err := lb.header(hdr, func(n int) error {
		if int64(n) > maxWeight {
			return &WeightError{Weight: int64(n), Limit: maxWeight}
		}
		return nil
	})
	if err != nil {
		putBlock(hdr)
		return nil, err
	}
	s := newCSRSink(n, maxWeight)

	// At most window blocks are read and not yet retired: enough to keep
	// the workers busy while one slow block holds up the retirement. Both
	// channels hold a window, so no send on them ever waits.
	procs := runtime.GOMAXPROCS(0)
	window := 2*procs + 2
	var (
		todo    = make(chan *edgeBlock, window)
		done    = make(chan *edgeBlock, window)
		ring    = make([]*edgeBlock, window) // block i at ring[i%window]
		free    []*edgeBlock
		read    int // blocks handed to the workers
		retired int // blocks whose pairs are in the log, in input order
		workers int
		failure error
		wg      sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for b := range todo {
			b.pairs = b.pairs[:0]
			b.err = scanEdges(b.text, b.line, func(u, v int) error {
				if u >= n || v >= n || u == v {
					return checkEdge(n, u, v, 0) // the edge count is the retirement's
				}
				b.pairs = append(b.pairs, int32(u), int32(v))
				return nil
			})
			done <- b
		}
	}
	dispatch := func(b *edgeBlock) {
		ring[read%window] = b
		read++
		if workers < procs {
			workers++
			wg.Add(1)
			go work()
		}
		todo <- b
	}
	// collect waits for one worker to finish a block, then retires every
	// finished block at the head of the input order.
	collect := func() {
		(<-done).done = true
		for ; retired < read && ring[retired%window].done; retired++ {
			b := ring[retired%window]
			switch {
			case failure != nil:
			case !s.room(len(b.pairs) / 2):
				// A limit is passed inside b: add its edges one by one
				// for the line of the edge that passes it.
				failure = scanEdges(b.text, b.line, s.add)
			case b.err != nil:
				failure = b.err
			default:
				s.log(b.pairs)
			}
			b.done = false
			free = append(free, b)
		}
	}

	dispatch(hdr)
	var readErr error
	for failure == nil {
		if read-retired == window {
			collect()
			continue
		}
		var b *edgeBlock
		if k := len(free) - 1; k >= 0 {
			b, free = free[k], free[:k]
		} else {
			b = getBlock()
		}
		text, line, err := lb.next(b.text)
		if err != nil {
			readErr = err
			free = append(free, b)
			break
		}
		b.text, b.line = text, line
		dispatch(b)
	}
	close(todo)
	for retired < read {
		collect()
	}
	wg.Wait()
	for _, b := range free {
		putBlock(b)
	}
	if failure != nil {
		return nil, failure
	}
	if readErr != io.EOF {
		return nil, readErr
	}

	w := max(workers, 1)
	return s.graph(w, func(f func(i int)) {
		var wg sync.WaitGroup
		wg.Add(w)
		for i := range w {
			go func() {
				defer wg.Done()
				f(i)
			}()
		}
		wg.Wait()
	})
}

// edgeBlock is one block of ReadEdgeListWithin's input and what a worker
// made of it.
type edgeBlock struct {
	text  []byte  // whole lines, each ended by '\n'
	line  int     // the number of text's first line
	pairs []int32 // its edges, u and v interleaved, up to its first failure
	err   error   // that failure
	done  bool    // tokenized, waiting to retire
}

// spareBlocks keeps the blocks of finished reads for the next ones. It is
// a bounded channel rather than a sync.Pool: a server collects garbage a
// few times per upload, and a pool emptied by every second collection
// would have each read allocate its blocks afresh.
var spareBlocks = make(chan *edgeBlock, 16)

func getBlock() *edgeBlock {
	select {
	case b := <-spareBlocks:
		return b
	default:
		return new(edgeBlock)
	}
}

// putBlock spares b unless a long line grew its buffer.
func putBlock(b *edgeBlock) {
	b.err = nil
	if cap(b.text) <= 2*blockSize {
		select {
		case spareBlocks <- b:
		default:
		}
	}
}

// WeightError is ReadEdgeListWithin's rejection, at the n + 2m read so far.
type WeightError struct{ Weight, Limit int64 }

func (e *WeightError) Error() string {
	return fmt.Sprintf("graph: weight %d exceeds the limit %d", e.Weight, e.Limit)
}

// scanEdgeList is the sequential form of ReadEdgeListWithin's reader, for
// the external-memory converter (ConvertEdgeList), so both parse the exact
// same dialect: header(n) is called once for the declared vertex count,
// then edge(u, v) per edge line. Callback errors are wrapped with the line
// number. An input with no header line at all is an error.
func scanEdgeList(r io.Reader, header func(n int) error, edge func(u, v int) error) error {
	lb := lineBlocks{r: r, line: 1}
	var b edgeBlock
	_, err := lb.header(&b, header)
	for err == nil {
		if err = scanEdges(b.text, b.line, edge); err == nil {
			b.text, b.line, err = lb.next(b.text)
		}
	}
	if err == io.EOF {
		return nil
	}
	return err
}

// blockSize is how many bytes lineBlocks reads per block. Tests shrink it
// to cut lines across block boundaries; it must stay at most maxLine.
var blockSize = 64 << 10

// maxLine is the line length, '\n' excluded, at which reading fails with
// bufio.ErrTooLong, as a bufio.Scanner with a 1 MiB buffer does.
const maxLine = 1 << 20

// lineBlocks cuts a stream into blocks of whole lines, each ended by '\n'
// (one is added to an unterminated last line): a block is about blockSize
// bytes, cut at its last newline, and the partial line after that newline
// opens the next block. A line of maxLine bytes or more fails with
// bufio.ErrTooLong once the lines before it are handed out.
type lineBlocks struct {
	r     io.Reader
	carry []byte // the partial line after the last block
	line  int    // the number of the next block's first line
	err   error  // what ended the reads: io.EOF or the reader's error
}

// next reads the next block into buf's storage and returns it with the
// number of its first line. After the last block it returns io.EOF, or the
// error that ended the reads.
func (lb *lineBlocks) next(buf []byte) ([]byte, int, error) {
	buf = append(buf[:0], lb.carry...) // carry may alias buf: copy moves
	lb.carry = nil
	for scanned := len(buf); ; scanned = len(buf) { // buf[:scanned] has no '\n'
		if lb.err == nil {
			// Fill the block up to blockSize, or by blockSize more while
			// a line longer than that is still open.
			k := len(buf)
			n := blockSize - k
			if n <= 0 {
				n = blockSize
			}
			buf = slices.Grow(buf, n)[:k+n]
			got, err := io.ReadFull(lb.r, buf[k:])
			if buf = buf[:k+got]; err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			lb.err = err
		}
		if last := bytes.LastIndexByte(buf[scanned:], '\n'); last >= 0 {
			if scanned+bytes.IndexByte(buf[scanned:], '\n') >= maxLine {
				return nil, 0, bufio.ErrTooLong
			}
			block := buf[:scanned+last+1]
			lb.carry = buf[len(block):]
			return lb.number(block)
		}
		if len(buf) >= maxLine {
			return nil, 0, bufio.ErrTooLong
		}
		if lb.err != nil {
			if len(buf) == 0 {
				return buf, 0, lb.err
			}
			return lb.number(append(buf, '\n'))
		}
	}
}

func (lb *lineBlocks) number(block []byte) ([]byte, int, error) {
	first := lb.line
	lb.line += bytes.Count(block, []byte{'\n'})
	return block, first, nil
}

// header reads blocks into b up to the vertex count, the first line that
// is neither blank nor a comment, and leaves in b the lines after it.
// check vets the count; its error is wrapped with the line number.
func (lb *lineBlocks) header(b *edgeBlock, check func(n int) error) (int, error) {
	for {
		text, line, err := lb.next(b.text)
		if err == io.EOF {
			return 0, errors.New("graph: empty input")
		}
		if err != nil {
			return 0, err
		}
		for b.text = text; len(text) > 0; line++ {
			end := bytes.IndexByte(text, '\n')
			t := bytes.TrimSpace(text[:end])
			if text = text[end+1:]; len(t) == 0 || t[0] == '#' {
				continue
			}
			n, tail, err := parseInt(t)
			if err != nil || len(bytes.TrimSpace(tail)) != 0 {
				return 0, fmt.Errorf("graph: line %d: vertex count expected, got %q", line, t)
			}
			if n > math.MaxInt32 {
				// Adjacency ids are int32; a larger declared count can
				// never be a valid graph and would allocate the offsets
				// array for a count no edge line could reference.
				return 0, fmt.Errorf("graph: line %d: vertex count %d exceeds int32 range", line, n)
			}
			if err := check(n); err != nil {
				return 0, fmt.Errorf("graph: line %d: %w", line, err)
			}
			b.text, b.line = text, line+1
			return n, nil
		}
	}
}

// scanEdges reads the edge lines of text, whole lines each ended by '\n'
// and numbered from line, calling edge per edge, and returns the first
// failure with its line number. The common line, "u v" with one space and
// integers of at most 18 digits, is read in place in one pass. Every other
// line takes the TrimSpace/parseInt path, which sets the dialect and the
// error texts.
func scanEdges(text []byte, line int, edge func(u, v int) error) error {
	for i := 0; i < len(text); line++ {
		u, j := digits(text, i)
		if j > i && j-i <= 18 && j < len(text) && text[j] == ' ' {
			if v, k := digits(text, j+1); k > j+1 && k-j <= 19 && k < len(text) && text[k] == '\n' {
				if err := edge(u, v); err != nil {
					return fmt.Errorf("graph: line %d: %w", line, err)
				}
				i = k + 1
				continue
			}
		}
		end := i + bytes.IndexByte(text[i:], '\n')
		t := bytes.TrimSpace(text[i:end])
		if i = end + 1; len(t) == 0 || t[0] == '#' {
			continue
		}
		u, rest, err1 := parseInt(t)
		v, rest, err2 := parseInt(bytes.TrimSpace(rest))
		if err1 != nil || err2 != nil || len(bytes.TrimSpace(rest)) != 0 {
			return fmt.Errorf("graph: line %d: want 'u v', got %q", line, t)
		}
		if err := edge(u, v); err != nil {
			return fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	return nil
}

// digits reads the decimal digits at s[i:]. The value is meaningful for
// at most 18 of them.
func digits(s []byte, i int) (n, end int) {
	for end = i; end < len(s) && s[end]-'0' <= 9; end++ {
		n = n*10 + int(s[end]-'0')
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
