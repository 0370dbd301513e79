package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/serve/runcfg"
)

func csrEqual(a, b *graph.Graph) bool {
	ao, an := a.CSR()
	bo, bn := b.CSR()
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	return bytes.Equal(int32sLE(ao), int32sLE(bo)) && bytes.Equal(int32sLE(an), int32sLE(bn))
}

func int32sLE(s []int32) []byte {
	out := make([]byte, 4*len(s))
	for i, x := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

func TestStoreSpillReadmit(t *testing.T) {
	small := gen.Path(10)
	store := NewGraphStore(2 * graphWeight(small))
	if err := store.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	originals := make(map[string]*graph.Graph)
	var ids []string
	for i := 0; i < 5; i++ {
		g := gen.Path(10)
		id, err := store.Add(g, Image{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		originals[id] = g
	}
	sp := store.Spill()
	if sp.Spills == 0 || sp.SpilledGraphs == 0 {
		t.Fatalf("no spilling happened: %+v", sp)
	}
	// Every graph — including the spilled ones — must still resolve, and a
	// spilled one must come back byte-identical, tagged as mmap.
	for _, id := range ids {
		g, source, ok := store.Resolve(id)
		if !ok {
			t.Fatalf("graph %s lost (spilling must not forget)", id)
		}
		if !csrEqual(g, originals[id]) {
			t.Fatalf("graph %s came back different", id)
		}
		if source != "ram" && source != "mmap" {
			t.Fatalf("graph %s resolved with source %q", id, source)
		}
	}
	if store.Spill().Readmits == 0 {
		t.Fatal("resolving spilled graphs recorded no re-admissions")
	}
}

// TestStoreSpillReadmitOnce resolves one spilled graph from many
// goroutines at once. The image is opened and verified with the store lock
// released, so the lookups that arrive meanwhile must wait for that one
// readmission: every lookup gets the graph, and it is paged in once.
func TestStoreSpillReadmitOnce(t *testing.T) {
	const n = 1 << 16
	store := NewGraphStore(2 * graphWeight(gen.Path(n)))
	if err := store.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	want := gen.Path(n)
	cold, err := store.Add(want, Image{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Add(gen.Path(n), Image{}); err != nil {
			t.Fatal(err)
		}
	}
	if sp := store.Spill(); sp.SpilledGraphs != 1 {
		t.Fatalf("want 1 spilled graph, have %+v", sp)
	}
	before := store.Spill().Readmits
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			g, _, ok := store.Resolve(cold)
			if !ok || !csrEqual(g, want) {
				t.Errorf("concurrent Resolve(%s): ok=%v", cold, ok)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := store.Spill().Readmits - before; got != 1 {
		t.Fatalf("%d readmissions of one spilled graph, want 1", got)
	}
}

// TestStoreSpillDroppedDuringReadmit drops a spilled graph's image through
// the disk budget while a readmission of it is reading the image with the
// store lock released. The readmission must then report a miss and leave
// the store's accounting as the drop left it, instead of admitting an entry
// the indexes no longer hold. The store's image open is held until the
// drop is done, so the two interleave on every run.
func TestStoreSpillDroppedDuringReadmit(t *testing.T) {
	const n = 1 << 17
	store := NewGraphStore(graphWeight(gen.Path(n)))
	if err := store.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	cold, err := store.Add(gen.Path(n), Image{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add(gen.Path(n), Image{}); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	e := store.items[cold]
	store.mu.Unlock()
	if e == nil || e.g != nil {
		t.Fatal("want the first graph spilled")
	}
	opening, release := make(chan struct{}), make(chan struct{})
	store.openImage = func(path string) (*graph.MappedGraph, error) {
		close(opening)
		<-release
		return graph.OpenDCSR(path)
	}
	resolved := make(chan bool)
	go func() {
		_, _, ok := store.Resolve(cold)
		resolved <- ok
	}()
	// The readmission is in the image open, between releasing the lock and
	// re-taking it, and stays there until released.
	<-opening
	store.mu.Lock()
	if e.opening == nil || e.g != nil {
		store.mu.Unlock()
		close(release)
		t.Fatal("readmission finished before the drop could interleave")
	}
	store.spillCap = 1
	store.enforceSpillCap()
	store.mu.Unlock()
	close(release)
	if <-resolved {
		t.Fatal("Resolve succeeded for a graph dropped during its readmission")
	}
	sp := store.Spill()
	if sp.Readmits != 0 || sp.SpilledGraphs != 0 || sp.SpilledBytes != 0 || sp.DiskBytes != 0 {
		t.Fatalf("spill accounting after the drop: %+v", sp)
	}
	if got := store.Len(); got != 1 {
		t.Fatalf("%d resident graphs, want only the second one", got)
	}
}

func TestStoreSpillSpecDedupSurvives(t *testing.T) {
	small, err := runcfg.Generate("path:40", 1)
	if err != nil {
		t.Fatal(err)
	}
	store := NewGraphStore(2 * graphWeight(small))
	if err := store.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	id1, g1, _, source, err := store.AddSpec("path:40", 1, func() (*graph.Graph, error) {
		return runcfg.Generate("path:40", 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if source != "parse" {
		t.Fatalf("first AddSpec source %q, want parse", source)
	}
	// Push the spec graph out of RAM.
	for i := 0; i < 4; i++ {
		if _, err := store.Add(gen.Path(40), Image{}); err != nil {
			t.Fatal(err)
		}
	}
	if e := store.items[id1]; e == nil || e.g != nil {
		t.Fatalf("spec graph %s not spilled", id1)
	}
	id2, g2, cached, source, err := store.AddSpec("path:40", 1, func() (*graph.Graph, error) {
		t.Fatal("generate called for a spilled spec graph")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 || !cached || source != "mmap" {
		t.Fatalf("spilled spec readmit: id=%s (want %s) cached=%v source=%q", id2, id1, cached, source)
	}
	if !csrEqual(g1, g2) {
		t.Fatal("readmitted spec graph differs from the generated one")
	}
}

func TestStoreSpillCapDrops(t *testing.T) {
	small := gen.Path(10)
	store := NewGraphStore(2 * graphWeight(small))
	// Disk budget fits roughly one tiny image, so older cold images are
	// deleted as new ones spill.
	if err := store.EnableSpill(t.TempDir(), 400); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := store.Add(gen.Path(10), Image{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sp := store.Spill()
	if sp.Drops == 0 {
		t.Fatalf("disk budget never enforced: %+v", sp)
	}
	if sp.DiskBytes > 400+256 { // one in-flight image may overshoot transiently
		t.Fatalf("disk usage %d way over budget 400", sp.DiskBytes)
	}
	if _, _, ok := store.Resolve(ids[0]); ok {
		t.Fatal("oldest dropped graph still resolves")
	}

	// The same churn through a server: the drops surface as a counter on
	// /metrics and, in spill mode only, as graphs.spill_drops on /v1/stats.
	srv, ts := newTestServer(t, Options{
		GraphCacheWeight: 2 * graphWeight(small), SpillDir: t.TempDir(), SpillMaxBytes: 400,
	})
	for i := 0; i < 6; i++ {
		uploadEdgeList(t, ts, gen.Path(10))
	}
	drops := srv.store.Spill().Drops
	if drops == 0 {
		t.Fatalf("server store never dropped an image: %+v", srv.store.Spill())
	}
	types, samples := scrapeMetrics(t, ts.URL)
	if types["distcolor_store_spill_drops_total"] != "counter" {
		t.Fatalf("distcolor_store_spill_drops_total type %q, want counter", types["distcolor_store_spill_drops_total"])
	}
	if got := samples["distcolor_store_spill_drops_total"]; got != float64(drops) {
		t.Fatalf("distcolor_store_spill_drops_total = %v, want %d", got, drops)
	}
	spillDrops := func(url string) *int64 {
		code, raw := doJSON(t, "GET", url+"/v1/stats", nil)
		if code != http.StatusOK {
			t.Fatalf("stats: %d %s", code, raw)
		}
		return decode[struct {
			Graphs struct {
				SpillDrops *int64 `json:"spill_drops"`
			} `json:"graphs"`
		}](t, raw).Graphs.SpillDrops
	}
	if got := spillDrops(ts.URL); got == nil || *got != drops {
		t.Fatalf("/v1/stats graphs.spill_drops = %v, want %d", got, drops)
	}
	_, plain := newTestServer(t, Options{})
	if got := spillDrops(plain.URL); got != nil {
		t.Fatalf("/v1/stats without spilling reports spill_drops = %d", *got)
	}
}

// TestStoreSpillCorruptImageDropped corrupts spilled images on disk — one
// neighbor entry overwritten with an out-of-range vertex, which the O(1)
// page map cannot see — and checks that readmission verifies them: each
// lookup misses, the image file is removed, the drop is counted on
// /metrics and logged, and a job naming the graph fails cleanly instead of
// running on it.
func TestStoreSpillCorruptImageDropped(t *testing.T) {
	small := gen.Path(10)
	buf := &syncBuffer{}
	srv, ts := newTestServer(t, Options{
		GraphCacheWeight: 2 * graphWeight(small),
		SpillDir:         t.TempDir(),
		Logger:           slog.New(slog.NewJSONHandler(buf, nil)),
	})
	for i := 0; i < 5; i++ {
		uploadEdgeList(t, ts, gen.Path(10))
	}
	srv.store.mu.Lock()
	cold := map[string]string{}
	for id, e := range srv.store.items {
		if e.g == nil {
			cold[id] = e.Path
		}
	}
	srv.store.mu.Unlock()
	if len(cold) < 3 {
		t.Fatalf("want ≥ 3 spilled images, have %d", len(cold))
	}
	for _, path := range cold {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		neighborsOff := binary.LittleEndian.Uint64(img[40:48])
		binary.LittleEndian.PutUint32(img[neighborsOff:], 1<<30)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.store.Spill().Drops
	for id, path := range cold {
		code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
			map[string]any{"graph": id, "algo": "gps7"})
		if code < 400 {
			t.Fatalf("job on corrupt image %s: status %d: %s", id, code, raw)
		}
		if _, _, ok := srv.store.Resolve(id); ok {
			t.Fatalf("corrupt image %s still resolves", id)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt image %s left on disk (stat: %v)", path, err)
		}
	}
	drops := srv.store.Spill().Drops
	if drops-before != int64(len(cold)) {
		t.Fatalf("%d spill drops for %d corrupt images", drops-before, len(cold))
	}
	if _, samples := scrapeMetrics(t, ts.URL); samples["distcolor_store_spill_drops_total"] != float64(drops) {
		t.Fatalf("distcolor_store_spill_drops_total = %v, want %d", samples["distcolor_store_spill_drops_total"], drops)
	}
	if got := strings.Count(buf.String(), `"msg":"spill image dropped"`); got != len(cold) {
		t.Fatalf("%d spill-drop log events for %d corrupt images", got, len(cold))
	}
}

// TestStoreSpillConcurrent churns a tiny store from many goroutines so the
// race detector sees the whole spill/readmit/touch lifecycle.
func TestStoreSpillConcurrent(t *testing.T) {
	small := gen.Path(30)
	store := NewGraphStore(2 * graphWeight(small))
	if err := store.EnableSpill(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := store.Add(gen.Path(30), Image{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				g, _, ok := store.Resolve(id)
				if !ok {
					t.Errorf("graph %s lost under churn", id)
					return
				}
				if g.N() != 30 {
					t.Errorf("graph %s corrupted: n=%d", id, g.N())
					return
				}
				// Exercise the lazy-mirror reweigh path concurrently.
				if i%17 == 0 {
					g.Mirror()
				}
				// Spec graphs share the churn: resident hits, readmissions
				// and racing generations.
				if i%5 == 0 {
					spec := fmt.Sprintf("path:%d", 30+w%3)
					_, sg, _, _, err := store.AddSpec(spec, 1, func() (*graph.Graph, error) {
						return runcfg.Generate(spec, 1)
					})
					if err != nil || sg == nil || sg.N() != 30+w%3 {
						t.Errorf("AddSpec(%s) under churn: g=%v err=%v", spec, sg, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStoreMirrorWeightLazy(t *testing.T) {
	g := gen.Path(100) // n=100, m=99
	store := NewGraphStore(10_000)
	id, err := store.Add(g, Image{})
	if err != nil {
		t.Fatal(err)
	}
	csrOnly := int64(g.N()) + 2*int64(g.M())
	if used, _ := store.Used(); used != csrOnly {
		t.Fatalf("pre-mirror weight %d, want n+2m = %d", used, csrOnly)
	}
	g.Mirror() // what the engine does on the first message-plane job
	if _, _, ok := store.Resolve(id); !ok {
		t.Fatal("graph missing")
	}
	if used, _ := store.Used(); used != csrOnly+2*int64(g.M()) {
		t.Fatalf("post-mirror weight %d, want n+4m = %d", used, csrOnly+2*int64(g.M()))
	}
}

// dcsrBytes serializes g as a .dcsr image.
func dcsrBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteDCSR(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func TestUploadDCSR(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, SpillDir: t.TempDir()})
	g, err := runcfg.Generate("apollonian:300", 7)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postBody(t, ts.URL+"/v1/graphs", "application/x-dcsr", dcsrBytes(t, g))
	if code != http.StatusCreated {
		t.Fatalf("dcsr upload: status %d: %s", code, raw)
	}
	gj := decode[graphJSON](t, raw)
	if gj.N != g.N() || gj.M != g.M() || gj.MaxDeg != g.MaxDegree() {
		t.Fatalf("dcsr upload echoed %+v for n=%d m=%d", gj, g.N(), g.M())
	}
	// A job on the mapped graph runs exactly like on a parsed one.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"graph": gj.ID, "algo": "planar6", "seed": 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	if jj := decode[jobJSON](t, raw); jj.Status != StatusDone || !jj.Verified {
		t.Fatalf("job on mapped graph: %s", raw)
	}
}

func TestUploadDCSRRejects(t *testing.T) {
	g := gen.Path(20)
	valid := dcsrBytes(t, g)

	t.Run("without spill tier", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		code, raw := postBody(t, ts.URL+"/v1/graphs", "application/x-dcsr", valid)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", code, raw)
		}
	})
	t.Run("corrupt image", func(t *testing.T) {
		spill := t.TempDir()
		_, ts := newTestServer(t, Options{SpillDir: spill})
		bad := bytes.Clone(valid)
		bad[len(bad)-1] ^= 0x01
		code, raw := postBody(t, ts.URL+"/v1/graphs", "application/x-dcsr", bad)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", code, raw)
		}
		// The rejected spool must not leak into the spill dir.
		files, err := filepath.Glob(filepath.Join(spill, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 0 {
			t.Fatalf("rejected upload left files behind: %v", files)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		_, ts := newTestServer(t, Options{SpillDir: t.TempDir()})
		code, raw := postBody(t, ts.URL+"/v1/graphs", "application/x-dcsr", valid[:40])
		if code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", code, raw)
		}
	})
}

func TestUploadConvertOversized(t *testing.T) {
	// ConvertUploadBytes=1 forces every text upload with a known length
	// through the external-memory converter.
	srv, ts := newTestServer(t, Options{
		Workers: 2, SpillDir: t.TempDir(), ConvertUploadBytes: 1, ConvertMemBudget: 4096,
	})
	g, err := runcfg.Generate("apollonian:300", 7)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	code, raw := postBody(t, ts.URL+"/v1/graphs", "text/plain", text.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("convert upload: status %d: %s", code, raw)
	}
	gj := decode[graphJSON](t, raw)
	if gj.N != g.N() || gj.M != g.M() || gj.MaxDeg != g.MaxDegree() {
		t.Fatalf("convert upload echoed %+v for n=%d m=%d Δ=%d", gj, g.N(), g.M(), g.MaxDegree())
	}
	got, _, ok := srv.store.Resolve(gj.ID)
	if !ok {
		t.Fatal("converted graph not resolvable")
	}
	if !csrEqual(got, g) {
		t.Fatal("converted graph CSR differs from in-memory build")
	}
	// The input spool is deleted after conversion; only the .dcsr remains.
	files, err := filepath.Glob(filepath.Join(srv.store.SpillDir(), "*.edges"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("conversion left input spools behind: %v", files)
	}
}

// fetchColorsBinary reads a job's colors via the binary negotiation.
func fetchColorsBinary(t *testing.T, ts *httptest.Server, jobID, query string) ([]int32, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+jobID+"/colors"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary colors: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary colors content type %q", ct)
	}
	if len(raw)%4 != 0 {
		t.Fatalf("binary body length %d not a multiple of 4", len(raw))
	}
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, resp.Header
}

func TestBinaryColors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g, err := runcfg.Generate("apollonian:300", 7)
	if err != nil {
		t.Fatal(err)
	}
	id := uploadEdgeList(t, ts, g)
	code, raw := doJSON(t, "POST", ts.URL+"/v1/jobs?wait=true",
		map[string]any{"graph": id, "algo": "planar6", "seed": 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	jj := decode[jobJSON](t, raw)

	code, raw = doJSON(t, "GET", ts.URL+"/v1/jobs/"+jj.ID+"/colors", nil)
	if code != http.StatusOK {
		t.Fatalf("json colors: status %d: %s", code, raw)
	}
	want := decode[struct {
		Colors []int `json:"colors"`
	}](t, raw).Colors

	bin, hdr := fetchColorsBinary(t, ts, jj.ID, "")
	if len(bin) != len(want) {
		t.Fatalf("binary returned %d colors, json %d", len(bin), len(want))
	}
	for i := range bin {
		if int(bin[i]) != want[i] {
			t.Fatalf("color[%d]: binary %d, json %d", i, bin[i], want[i])
		}
	}
	if hdr.Get("X-Distcolor-Colors-Total") != fmt.Sprint(len(want)) {
		t.Fatalf("total header %q, want %d", hdr.Get("X-Distcolor-Colors-Total"), len(want))
	}

	// Ranged binary read.
	from, count := 17, 100
	part, hdr := fetchColorsBinary(t, ts, jj.ID, fmt.Sprintf("?from=%d&count=%d", from, count))
	if len(part) != count {
		t.Fatalf("ranged binary returned %d colors, want %d", len(part), count)
	}
	for i := range part {
		if int(part[i]) != want[from+i] {
			t.Fatalf("ranged color[%d]: binary %d, json %d", i, part[i], want[from+i])
		}
	}
	if hdr.Get("X-Distcolor-Colors-From") != fmt.Sprint(from) {
		t.Fatalf("from header %q, want %d", hdr.Get("X-Distcolor-Colors-From"), from)
	}
}

// TestSpillEndToEndByteIdentical is the acceptance scenario: a .dcsr graph
// whose working set exceeds the store's RAM budget is served through the
// spill path, and its colorings are byte-identical to the parsed path on a
// roomy server.
func TestSpillEndToEndByteIdentical(t *testing.T) {
	g, err := runcfg.Generate("apollonian:800", 7)
	if err != nil {
		t.Fatal(err)
	}
	// RAM budget far below the graph's parsed weight (n+2m ≈ 5600): the
	// graph can only live in the store as a page-mapped .dcsr image, and
	// parsed churn uploads push even that image out to disk between rounds.
	churn := gen.Path(50)
	budget := 3 * graphWeight(churn) / 2
	tinySrv, tiny := newTestServer(t, Options{Workers: 2, GraphCacheWeight: budget, SpillDir: t.TempDir()})
	_, roomy := newTestServer(t, Options{Workers: 2})

	code, raw := postBody(t, tiny.URL+"/v1/graphs", "application/x-dcsr", dcsrBytes(t, g))
	if code != http.StatusCreated {
		t.Fatalf("dcsr upload: status %d: %s", code, raw)
	}
	tinyID := decode[graphJSON](t, raw).ID
	roomyID := uploadEdgeList(t, roomy, g)

	for round := 0; round < 3; round++ {
		// Two parsed uploads overflow the RAM budget, evicting the mapped
		// graph to its on-disk image; the next job must re-admit it.
		if round > 0 {
			for i := 0; i < 2; i++ {
				uploadEdgeList(t, tiny, gen.Path(50))
			}
		}
		seed := 100 + round
		submit := func(url, id string) []int32 {
			code, raw := doJSON(t, "POST", url+"/v1/jobs?wait=true",
				map[string]any{"graph": id, "algo": "planar6", "seed": seed, "fresh": true})
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", code, raw)
			}
			jj := decode[jobJSON](t, raw)
			if jj.Status != StatusDone || !jj.Verified {
				t.Fatalf("job: %s", raw)
			}
			colors, _ := fetchColorsBinary(t, mustTS(url, tiny, roomy), jj.ID, "")
			return colors
		}
		a := submit(tiny.URL, tinyID)
		b := submit(roomy.URL, roomyID)
		if len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d colors", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: color[%d] spill=%d parsed=%d", round, i, a[i], b[i])
			}
		}
	}
	// The identical colorings must actually have crossed the spill path.
	if sp := tinySrv.store.Spill(); sp.Spills == 0 || sp.Readmits == 0 {
		t.Fatalf("graph never went out of core (spills=%d readmits=%d)", sp.Spills, sp.Readmits)
	}
}

// mustTS maps a URL back to its httptest server (fetchColorsBinary wants
// the server, submit only has the URL).
func mustTS(url string, servers ...*httptest.Server) *httptest.Server {
	for _, ts := range servers {
		if ts.URL == url {
			return ts
		}
	}
	panic("unknown test server " + url)
}
