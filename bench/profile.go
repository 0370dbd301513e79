package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerRule assigns a function, by name prefix, to a layer.
type layerRule struct {
	layer, prefix string
}

// layerRules is the fixed layer table of the traced run. A CPU sample goes
// to the layer of the innermost stack frame that matches a rule, so time in
// shared helpers (BFS, bitsets, the allocator) lands in the layer that
// called them. GC assists and background GC workers both go to runtime.gc.
var layerRules = []layerRule{
	{"core.happy", "distcolor/internal/core.happySet"},
	{"core.ballrecolor", "distcolor/internal/core.colorBallTheorem11"},
	{"core.extend", "distcolor/internal/core.extend"},
	{"core.peel-other", "distcolor/internal/core.peelAndExtend"},
	{"ruling.compute", "distcolor/internal/ruling."},
	{"reduce.schedule", "distcolor/internal/reduce."},
	{"seqcolor.verify", "distcolor/internal/seqcolor.Verify"},
	{"graph.clique", "distcolor/internal/graph.(*Graph).FindCliqueDPlus1"},
	{"local.network", "distcolor/internal/local.NewShuffledNetwork"},
	{"local.network", "distcolor/internal/local.NewNetwork"},
	{"gps.color", "distcolor/internal/gps."},
	{"graph.open", "distcolor/internal/graph.OpenDCSR"},
	{"graph.parse", "distcolor/internal/graph.ReadEdgeList"},
	{"colors.encode", "main.writeColors"},
	{"colors.encode", "distcolor/internal/serve.streamColorsBinary"},
	{"serve.http", "net/http."},
	{"serve.http", "encoding/json."},
	{"runtime.gc", "runtime.gcBgMarkWorker"},
	{"runtime.gc", "runtime.gcAssistAlloc"},
	{"runtime.gc", "runtime.bgsweep"},
	{"runtime.gc", "runtime.bgscavenge"},
}

// benchLabelKey is the pprof label the harness puts on its own work: the
// output checks (bench=check) and the machine probe (bench=probe). Their
// samples go to bench.check and bench.probe whatever they call.
const (
	benchLabelKey   = "bench"
	checkLabelValue = "check"
	probeLabelValue = "probe"
	otherLayer      = "other"
	totalLayer      = "total"
)

var benchLayers = []string{benchLabelKey + "." + checkLabelValue, benchLabelKey + "." + probeLabelValue}

// profLayers lists every layer the attribution reports, in table order,
// then the harness's own layers, other (no rule matched) and total.
func profLayers() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range layerRules {
		if !seen[r.layer] {
			seen[r.layer] = true
			out = append(out, r.layer)
		}
	}
	out = append(out, benchLayers...)
	return append(out, otherLayer, totalLayer)
}

// cpuSample is one stack of a CPU profile: function names innermost first,
// the CPU time it stands for, and its pprof labels.
type cpuSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// attribute sums CPU nanoseconds per layer. Every sample lands in exactly
// one layer, so the layers other than total sum to total.
func attribute(samples []cpuSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s)] += s.nanos
		out[totalLayer] += s.nanos
	}
	return out
}

func layerOf(s cpuSample) string {
	if v := s.labels[benchLabelKey]; v == checkLabelValue || v == probeLabelValue {
		return benchLabelKey + "." + v
	}
	for _, fn := range s.stack {
		for _, r := range layerRules {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	return otherLayer
}

// parseProfile decodes a CPU profile in the pprof protobuf format (gzipped
// or not), as runtime/pprof and net/http/pprof write it.
func parseProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indexes: key, value
	}
	var (
		strs       []string
		valueTypes [][2]int64 // type, unit
		raws       []rawSample
		locFuncs   = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames  = map[uint64]int64{}    // function → name index
		period     int64
	)
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: inlined callee first, its caller last
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); prefer the
	// nanoseconds value, else scale the count by the sampling period.
	nsIdx := -1
	for i, vt := range valueTypes {
		if str(vt[1]) == "nanoseconds" {
			nsIdx = i
		}
	}
	out := make([]cpuSample, 0, len(raws))
	for _, r := range raws {
		s := cpuSample{}
		switch {
		case nsIdx >= 0 && nsIdx < len(r.values):
			s.nanos = r.values[nsIdx]
		case len(r.values) > 0:
			s.nanos = r.values[0] * period
		}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		if len(r.labels) > 0 {
			s.labels = map[string]string{}
			for _, kv := range r.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walk calls fn for each field of a protobuf message: v is the value of a
// varint field, b the payload of a length-delimited one. Fixed-width
// fields are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed reads a repeated integer field in either encoding: one varint
// (b == nil) or a packed run of varints.
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
