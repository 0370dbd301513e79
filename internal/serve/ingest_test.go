package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"distcolor/internal/gen"
)

// Ingest limits of the test servers below: bodies over ingestCap are
// refused with 413, and text bodies of known length over ingestConvert take
// the spool-and-convert path instead of the in-heap parse.
const (
	ingestCap     = 4096
	ingestConvert = 256
)

func ingestOptions(spill string) Options {
	return Options{
		Workers:            1,
		MaxUploadBytes:     ingestCap,
		SpillDir:           spill,
		ConvertUploadBytes: ingestConvert,
		ConvertMemBudget:   4096,
		TraceRing:          64,
	}
}

// newIngestServer starts a spill-enabled server with the ingest limits
// above and returns it with its base URL and spill dir.
func newIngestServer(t testing.TB) (s *Server, url, spill string) {
	t.Helper()
	spill = t.TempDir()
	s = New(ingestOptions(spill))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL, spill
}

// postRaw posts body with the given content type. A chunked post hides the
// length, so the server sees ContentLength -1.
func postRaw(t testing.TB, url, contentType string, body []byte, chunked bool) (int, []byte) {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if chunked {
		rd = io.MultiReader(rd)
	}
	req, err := http.NewRequest("POST", url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// dirFiles lists the names in dir.
func dirFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// textPadded is a valid edge-list header followed by comment lines until
// the body reaches size bytes, then tail.
func textPadded(size int, tail string) []byte {
	var b bytes.Buffer
	b.WriteString("3\n")
	for b.Len()+len(tail) < size {
		b.WriteString("# padding padding padding\n")
	}
	b.WriteString(tail)
	return b.Bytes()
}

// TestIngestRejections drives every upload kind and the job endpoint over
// their two failure edges — a body past MaxUploadBytes (413) and a malformed
// one (400) — and checks that no rejection leaves a spool, a converter
// output or an image behind in the spill dir.
func TestIngestRejections(t *testing.T) {
	_, url, spill := newIngestServer(t)
	over := ingestCap + 1024
	cases := []struct {
		name, path, contentType string
		body                    []byte
		chunked                 bool
		want                    int
	}{
		{"json gen over cap", "/v1/graphs", "application/json",
			[]byte(`{"gen":"path:5"` + strings.Repeat(" ", over) + `}`), false, http.StatusRequestEntityTooLarge},
		{"json gen malformed", "/v1/graphs", "application/json",
			[]byte(`{"gen":`), false, http.StatusBadRequest},
		{"small text over cap", "/v1/graphs", "text/plain",
			textPadded(over, "0 1\n"), true, http.StatusRequestEntityTooLarge},
		{"small text malformed", "/v1/graphs", "text/plain",
			[]byte("3\n0 9\n"), false, http.StatusBadRequest},
		{"x-dcsr over cap", "/v1/graphs", "application/x-dcsr",
			make([]byte, over), false, http.StatusRequestEntityTooLarge},
		{"x-dcsr malformed", "/v1/graphs", "application/x-dcsr",
			bytes.Repeat([]byte{0xA5}, 100), false, http.StatusBadRequest},
		{"oversized text over cap", "/v1/graphs", "text/plain",
			textPadded(over, "0 1\n"), false, http.StatusRequestEntityTooLarge},
		{"oversized text malformed", "/v1/graphs", "text/plain",
			textPadded(2*ingestConvert, "0 9\n"), false, http.StatusBadRequest},
		{"jobs over cap", "/v1/jobs", "application/json",
			[]byte(`{"gen":"path:5","algo":"planar6"` + strings.Repeat(" ", over) + `}`), false, http.StatusRequestEntityTooLarge},
		{"jobs malformed", "/v1/jobs", "application/json",
			[]byte(`{"graph":`), false, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postRaw(t, url+tc.path, tc.contentType, tc.body, tc.chunked)
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, raw)
			}
			if !strings.Contains(string(raw), "error") {
				t.Fatalf("no error message in %s", raw)
			}
			if files := dirFiles(t, spill); len(files) != 0 {
				t.Fatalf("rejected request left files in the spill dir: %v", files)
			}
		})
	}
}

// ingestKinds are the upload kinds FuzzUploadGraph selects between: the
// JSON generator spec, text of known length (parsed in the heap up to
// ingestConvert bytes, spooled and converted beyond), text of unknown
// length (always parsed in the heap) and a binary .dcsr image.
var ingestKinds = []struct {
	contentType string
	chunked     bool
}{
	{"application/json", false},
	{"text/plain", false},
	{"text/plain", true},
	{"application/x-dcsr", false},
}

// fuzzInputTooCostly reports inputs that are expensive by design rather
// than by defect: a generator spec with a three-digit or longer number (a
// complete:9999 is a legitimate 50M-edge graph), or an edge list declaring
// more than 2^16 vertices (the format preallocates for the declared count).
func fuzzInputTooCostly(contentType string, body []byte) bool {
	switch contentType {
	case "application/json":
		var req uploadRequest
		if json.Unmarshal(body, &req) != nil {
			return false
		}
		run := 0
		for _, c := range req.Gen {
			if c >= '0' && c <= '9' {
				if run++; run >= 3 {
					return true
				}
			} else {
				run = 0
			}
		}
	case "text/plain":
		for _, line := range bytes.Split(body, []byte("\n")) {
			text := bytes.TrimSpace(line)
			if len(text) == 0 || text[0] == '#' {
				continue
			}
			n := 0
			for _, c := range text {
				if c < '0' || c > '9' {
					break
				}
				if n = 10*n + int(c-'0'); n > 1<<16 {
					return true
				}
			}
			return false
		}
	}
	return false
}

// FuzzUploadGraph fuzzes POST /v1/graphs, the server's one way in, over
// (upload kind, body) on a spill-enabled server with a tiny convert
// threshold, so every decoder sees the input. The reply must be 201, 400 or
// 413; a rejection must leave nothing in the spill dir; an accepted graph
// must resolve from the store with the n, m and maxdeg the reply echoed.
func FuzzUploadGraph(f *testing.F) {
	var image bytes.Buffer
	if _, err := gen.Cycle(12).WriteDCSR(&image); err != nil {
		f.Fatal(err)
	}
	seeds := []struct {
		kind uint8
		body []byte
	}{
		{0, []byte(`{"gen":"apollonian:30","seed":3}`)},
		{0, []byte(`{"gen":"nosuch:4"}`)},
		{0, []byte(`{"gen":"path:5","gen_seed":1}`)},
		{1, []byte("4\n0 1\n1 2\n2 3\n")},
		{1, []byte("3\n0 9\n")},
		{1, textPadded(2*ingestConvert, "0 1\n1 2\n")},
		{1, textPadded(2*ingestConvert, "0 1\n0 1\n")},
		{2, []byte("# chunked\n5\n0 4\n")},
		{3, image.Bytes()},
		{3, image.Bytes()[:40]},
		{3, bytes.Repeat([]byte{0xA5}, 100)},
	}
	for _, sd := range seeds {
		f.Add(sd.kind, sd.body)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		k := ingestKinds[int(kind)%len(ingestKinds)]
		if fuzzInputTooCostly(k.contentType, body) {
			t.Skip("input is costly by design")
		}
		// A fresh server per input keeps the spill dir check exact and the
		// process's page mappings bounded.
		spill := t.TempDir()
		s := New(ingestOptions(spill))
		defer s.Close()
		req := httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body))
		if k.chunked {
			req.ContentLength = -1
		}
		req.Header.Set("Content-Type", k.contentType)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusCreated:
			var gj graphJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &gj); err != nil {
				t.Fatalf("201 with undecodable body %q: %v", rec.Body.Bytes(), err)
			}
			g, _, ok := s.store.Resolve(gj.ID)
			if !ok {
				t.Fatalf("accepted graph %s does not resolve", gj.ID)
			}
			if g.N() != gj.N || g.M() != gj.M || g.MaxDegree() != gj.MaxDeg {
				t.Fatalf("reply %+v, store holds n=%d m=%d maxdeg=%d", gj, g.N(), g.M(), g.MaxDegree())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if files := dirFiles(t, spill); len(files) != 0 {
				t.Fatalf("rejected upload (%d) left files behind: %v", rec.Code, files)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
