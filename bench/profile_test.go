package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"slices"
	"testing"
)

// pbuf writes the protobuf wire format, enough to build CPU profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.bytes(field, in)
}

// fixtureSample is one stack of the test profile: frames innermost first,
// with the frames of one location (inlined calls) grouped together.
type fixtureSample struct {
	locs     [][]string
	ms       uint64
	label    bool // carries the harness's check label
	unpacked bool // repeated fields written one varint each
}

// fixtureProfile encodes samples as a gzipped pprof CPU profile, laid out
// the way runtime/pprof writes one.
func fixtureProfile(samples []fixtureSample) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", benchLabelKey, checkLabelValue}
	idx := func(s string) uint64 {
		if i := slices.Index(strs, s); i >= 0 {
			return uint64(i)
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pbuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.varint(1, idx(vt[0]))
		m.varint(2, idx(vt[1]))
		prof.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	var locID uint64
	var locations, functions pbuf
	for _, s := range samples {
		var ids []uint64
		for _, frames := range s.locs {
			locID++
			var loc pbuf
			loc.varint(1, locID)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbuf
					f.varint(1, id)
					f.varint(2, idx(fn))
					functions.bytes(5, f.b)
				}
				var line pbuf
				line.varint(1, id)
				line.varint(2, 42)
				loc.bytes(4, line.b)
			}
			locations.bytes(4, loc.b)
			ids = append(ids, locID)
		}
		var smp pbuf
		if s.unpacked {
			for _, id := range ids {
				smp.varint(1, id)
			}
			smp.varint(2, 1)
			smp.varint(2, s.ms*1e6)
		} else {
			smp.packed(1, ids...)
			smp.packed(2, 1, s.ms*1e6)
		}
		if s.label {
			var l pbuf
			l.varint(1, idx(benchLabelKey))
			l.varint(2, idx(checkLabelValue))
			smp.bytes(3, l.b)
		}
		prof.bytes(2, smp.b)
	}
	prof.b = append(prof.b, locations.b...)
	prof.b = append(prof.b, functions.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(12, 1e7)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	return gz.Bytes()
}

func TestProfileInnermostLayerAttribution(t *testing.T) {
	samples := []fixtureSample{
		// A shared helper is charged to the innermost layer that called it.
		{locs: [][]string{
			{"distcolor/internal/graph.(*Traversal).Run"},
			{"distcolor/internal/ruling.Compute"},
			{"distcolor/internal/core.extend"},
			{"distcolor/internal/core.peelAndExtend"},
		}, ms: 10},
		// Inlined frames of one location count innermost first.
		{locs: [][]string{
			{"distcolor/internal/seqcolor.DegreeListColor", "distcolor/internal/core.colorBallTheorem11"},
			{"distcolor/internal/core.extend"},
		}, ms: 20},
		{locs: [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, ms: 30},
		// The harness's own checks are labeled and kept out of the layers.
		{locs: [][]string{{"distcolor/internal/seqcolor.Verify"}, {"distcolor.Verify"}, {"main.checkColoring"}}, ms: 40, label: true},
		{locs: [][]string{{"distcolor/internal/seqcolor.Verify"}, {"distcolor/internal/core.peelAndExtend"}}, ms: 50, unpacked: true},
		{locs: [][]string{{"runtime.futex"}, {"runtime.schedule"}}, ms: 60},
	}
	parsed, err := parseProfile(fixtureProfile(samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(parsed), len(samples))
	}
	wantStack := []string{
		"distcolor/internal/seqcolor.DegreeListColor",
		"distcolor/internal/core.colorBallTheorem11",
		"distcolor/internal/core.extend",
	}
	if !slices.Equal(parsed[1].stack, wantStack) {
		t.Errorf("stack = %q, want %q", parsed[1].stack, wantStack)
	}
	got := attribute(parsed)
	want := map[string]int64{
		"ruling.compute":   10e6,
		"core.ballrecolor": 20e6,
		"runtime.gc":       30e6,
		"bench.check":      40e6,
		"seqcolor.verify":  50e6,
		otherLayer:         60e6,
		totalLayer:         210e6,
	}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("%s = %d ns, want %d", layer, got[layer], ns)
		}
	}
	var sum int64
	for layer, ns := range got {
		if layer != totalLayer {
			sum += ns
		}
	}
	if sum != got[totalLayer] {
		t.Errorf("layers sum to %d ns, total %d", sum, got[totalLayer])
	}
}

func TestProfileRejectsTruncation(t *testing.T) {
	var p pbuf
	p.bytes(6, []byte("a string"))
	if _, err := parseProfile(p.b[:len(p.b)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
