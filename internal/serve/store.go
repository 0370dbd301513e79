package serve

import (
	"bufio"
	"container/list"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"distcolor/internal/graph"
)

// GraphStore caches graphs in CSR form behind opaque IDs so repeated jobs
// on the same graph never re-parse or re-generate. It is a strict LRU
// bounded by total resident adjacency weight (heap-held int32 entries: the
// CSR arrays for parsed graphs, plus the delivery mirror once a graph has
// actually run a message-plane job; mmap'd graphs' file-backed pages are
// reclaimable by the OS and cost 0 until they materialize a mirror).
//
// With spilling enabled (EnableSpill), eviction stops being destructive:
// instead of forgetting a cold graph the store writes it once as a .dcsr
// image (or keeps the image it already has) in a bounded on-disk cache,
// and a later request for the same ID re-admits it with an O(1) page map
// instead of a re-parse or re-generate. Evicted graphs stay alive while
// running jobs hold references either way — dropping the store's reference
// never unmaps memory a job can still touch (the mapping is released by a
// GC cleanup after the last holder is gone).
//
// Graphs built from a generator spec are additionally deduplicated by
// (spec, seed): uploading the same spec twice returns the first ID with no
// rebuild, since generation is deterministic in (spec, seed). The dedup
// index survives spilling.
type GraphStore struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	seq     uint64
	items   map[string]*entry // graph ID → entry, resident or cold
	bySpec  map[string]*entry // "seed@spec" → entry, resident or cold
	lru     *list.List        // resident entries, front = most recent
	evicted int64
	hits    int64
	misses  int64

	// Spill state (zero when disabled).
	spillDir    string
	spillCap    int64      // bound on diskUsed; ≤0 = unbounded
	diskUsed    int64      // bytes of every .dcsr file the store owns
	coldBytes   int64      // subset of diskUsed belonging to cold entries
	mappedBytes int64      // .dcsr bytes backing resident mmap'd graphs
	spillLRU    *list.List // cold entries, front = most recently spilled
	spills      int64
	readmits    int64
	spillDrops  int64

	log *slog.Logger // spill-tier failure events

	// openImage maps a spilled image back in: graph.OpenDCSR, or a test's
	// wrapper that holds a readmission between releasing and re-taking mu.
	openImage func(path string) (*graph.MappedGraph, error)
}

// Image is a .dcsr file under the spill directory that holds a graph.
// Handing one to Add gives the store ownership of the file: from then on
// the store decides when it is deleted.
type Image struct {
	Path   string // "" when the graph has no image (yet)
	Bytes  int64  // file size, charged to the disk budget
	Mapped bool   // the graph's CSR arrays alias the file's pages
}

// entry is one stored graph, in one of two states: resident (g set, el in
// lru, weight charged to the RAM budget) or cold (g nil, el in spillLRU,
// only its image on disk, awaiting readmission). Both states share the ID
// and spec indexes, so a state change moves the entry between the lists and
// touches no map.
type entry struct {
	Image
	id      string
	specKey string       // non-empty for gen-spec graphs (dedup key)
	g       *graph.Graph // nil while cold
	weight  int64        // heap entries charged while resident (see heapWeight)
	el      *list.Element
	opening chan struct{} // non-nil while a readmission reads the image; closed when it ends
}

// specIDPrefix marks graph IDs derived from a generator spec. Such IDs are
// a pure function of (spec, seed), so every replica computes the same ID
// for the same graph — the property the cluster tier routes on. Sequence
// IDs ("g1", "g2", …) can never collide with the prefix: their second byte
// is a digit.
const specIDPrefix = "gs"

// specKeyFor is the store's dedup key for one generated graph. Seed first:
// it is digits-only, so the first '@' always delimits it and a spec
// containing '@' can never collide with another (spec, seed) pair.
func specKeyFor(spec string, seed uint64) string { return fmt.Sprintf("%d@%s", seed, spec) }

// specGraphID derives the fleet-deterministic graph ID from a store spec
// key ("seed@spec"): gs + 32 hex characters of FNV-1a-128 over the key.
func specGraphID(specKey string) string {
	h := fnv.New128a()
	io.WriteString(h, specKey)
	return specIDPrefix + hex.EncodeToString(h.Sum(nil))
}

// IsSpecGraphID reports whether id is a spec-derived (fleet-routable)
// graph ID.
func IsSpecGraphID(id string) bool {
	return strings.HasPrefix(id, specIDPrefix) && len(id) == len(specIDPrefix)+32
}

// graphWeight is the store accounting unit for one heap-resident graph:
// the CSR offsets plus neighbor array (n + 2m int32 entries), plus the
// same-sized mirror array (another 2m) once — and only once — the
// message-passing engine has materialized it. A graph that never ran a
// message-plane job does not pay for a mirror it doesn't have.
func graphWeight(g *graph.Graph) int64 {
	w := int64(g.N()) + 2*int64(g.M())
	if g.HasMirror() {
		w += 2 * int64(g.M())
	}
	return w
}

// heapWeight is graphWeight restricted to what actually lives on the Go
// heap: an mmap'd graph's CSR arrays are file-backed pages the OS can
// reclaim, so only its (lazily built) mirror counts.
func heapWeight(e *entry) int64 {
	if !e.Mapped {
		return graphWeight(e.g)
	}
	if e.g.HasMirror() {
		return 2 * int64(e.g.M())
	}
	return 0
}

// NewGraphStore returns a store bounded by capacity adjacency entries
// (vertices + directed edges). A capacity ≤ 0 panics: a serving layer with
// no graph cache cannot meet its latency contract.
func NewGraphStore(capacity int64) *GraphStore {
	if capacity <= 0 {
		panic("serve: graph store capacity must be positive")
	}
	return &GraphStore{
		cap:       capacity,
		items:     make(map[string]*entry),
		bySpec:    make(map[string]*entry),
		lru:       list.New(),
		spillLRU:  list.New(),
		log:       slog.New(slog.DiscardHandler),
		openImage: graph.OpenDCSR,
	}
}

// EnableSpill turns eviction into spilling: evicted graphs are written
// once as .dcsr images under dir (created if missing) and re-admitted by
// page map on the next request. maxBytes bounds the total bytes of images
// the store keeps on disk (resident mmap'd graphs included); ≤ 0 means
// unbounded. Call before the store is shared.
func (s *GraphStore) EnableSpill(dir string, maxBytes int64) error {
	if dir == "" {
		return fmt.Errorf("serve: spill dir must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating spill dir: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spillDir = dir
	s.spillCap = maxBytes
	return nil
}

// Add inserts g under a fresh ID, evicting (or spilling) least-recently-used
// residents as needed. img is the .dcsr image g was opened from, or the
// zero Image for a graph that has none; an image needs spilling enabled,
// and its bytes are charged to the disk budget, not the RAM budget —
// eviction keeps the file and re-admission is a page map. Graphs heavier
// than the whole capacity are rejected.
func (s *GraphStore) Add(g *graph.Graph, img Image) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if img.Path != "" && s.spillDir == "" {
		return "", fmt.Errorf("serve: a graph image needs spilling to be enabled")
	}
	s.seq++
	e := &entry{Image: img, id: fmt.Sprintf("g%d", s.seq), g: g}
	if err := s.insert(e); err != nil {
		return "", err
	}
	return e.id, nil
}

// AddSpec inserts the graph generated from (spec, seed), deduplicating:
// if that exact pair is resident — or spilled — its existing ID and graph
// are returned with cached=true and no graph is built. generate is only
// called on a full miss, outside the lock. source reports how the graph
// materialized this time: "ram" (resident), "mmap" (page-mapped, possibly
// re-admitted from a spilled image), or "parse" (generated). The graph is
// returned directly — callers must not re-resolve by ID, since a concurrent
// insert burst could evict the entry in between.
func (s *GraphStore) AddSpec(spec string, seed uint64, generate func() (*graph.Graph, error)) (id string, g *graph.Graph, cached bool, source string, err error) {
	key := specKeyFor(spec, seed)
	s.mu.Lock()
	if e := s.bySpec[key]; e != nil {
		if source, ok := s.materialize(e); ok {
			s.hits++
			g = e.g // read under the lock: eviction clears it
			s.mu.Unlock()
			return e.id, g, true, source, nil
		}
	}
	s.mu.Unlock()
	// Generate outside the lock: specs can take a while and the store must
	// keep serving. A racing identical upload may insert first; re-check.
	g, err = generate()
	if err != nil {
		return "", nil, false, "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++
	if e := s.bySpec[key]; e != nil && e.g != nil {
		// A racing identical upload won; this caller still generated, so the
		// work it did counts as a miss even though it gets the cached entry.
		s.touch(e)
		return e.id, e.g, true, residentSource(e), nil
	}
	e := &entry{id: specGraphID(key), specKey: key, g: g}
	if old := s.items[e.id]; old != nil {
		// A cold copy of this spec spilled while we generated, or a 128-bit
		// collision between distinct spec keys (astronomically unlikely):
		// the fresh graph replaces it.
		s.remove(old)
	}
	if err := s.insert(e); err != nil {
		return "", nil, false, "", err
	}
	return e.id, g, false, "parse", nil
}

func residentSource(e *entry) string {
	if e.Mapped {
		return "mmap"
	}
	return "ram"
}

// insert admits a new entry, indexes it by ID and spec, and charges the
// image it arrived with (if any) to the disk budget.
func (s *GraphStore) insert(e *entry) error {
	if err := s.admit(e); err != nil {
		return err
	}
	s.items[e.id] = e
	if e.specKey != "" {
		s.bySpec[e.specKey] = e
	}
	if e.Path != "" {
		s.diskUsed += e.Bytes
		s.enforceSpillCap()
	}
	return nil
}

// admit charges a resident entry and pushes it to the RAM LRU front,
// evicting from the back to make room. The entry being admitted is
// protected: a graph whose own weight exceeds what eviction can free is
// allowed to overshoot the cap transiently rather than deadlock the store
// (only fully heap-resident graphs heavier than the entire capacity are
// rejected outright).
func (s *GraphStore) admit(e *entry) error {
	e.weight = heapWeight(e)
	if !e.Mapped && e.weight > s.cap {
		return overCapacity(e.weight, s.cap)
	}
	for s.used+e.weight > s.cap {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.evict(oldest.Value.(*entry))
	}
	e.el = s.lru.PushFront(e)
	s.used += e.weight
	if e.Mapped {
		s.mappedBytes += e.Bytes
	}
	return nil
}

// overCapacity is the rejection of a heap graph heavier than the whole
// store, whether the store or the upload's parse finds it.
func overCapacity(weight, capacity int64) error {
	return fmt.Errorf("serve: graph weight %d exceeds store capacity %d", weight, capacity)
}

// release takes a resident entry off the RAM LRU and uncharges it.
func (s *GraphStore) release(e *entry) {
	s.lru.Remove(e.el)
	s.used -= e.weight
	if e.Mapped {
		s.mappedBytes -= e.Bytes
	}
	e.g = nil
}

// touch bumps recency and re-weighs the entry: the mirror array appears
// lazily (first message-plane job), so an entry's heap footprint can grow
// between lookups. Growth may push the store over cap; evict colder
// entries but never the one just touched.
func (s *GraphStore) touch(e *entry) {
	s.lru.MoveToFront(e.el)
	if w := heapWeight(e); w != e.weight {
		s.used += w - e.weight
		e.weight = w
		for s.used > s.cap {
			oldest := s.lru.Back()
			if oldest == nil || oldest == e.el {
				break
			}
			s.evict(oldest.Value.(*entry))
		}
	}
}

// evict pushes a resident entry out of RAM. With spilling enabled it turns
// cold, keeping its .dcsr image (writing it now if the graph never had
// one); otherwise — or when the disk refuses the image — the graph is
// forgotten.
func (s *GraphStore) evict(e *entry) {
	g := e.g
	s.release(e)
	s.evicted++
	if s.spillDir == "" {
		s.unindex(e)
		return
	}
	if e.Path == "" {
		path, n, err := s.writeSpill(e.id, g)
		if err != nil {
			// The eviction degrades to the spill-less behavior rather than
			// failing the insert that triggered it.
			s.unindex(e)
			return
		}
		e.Path, e.Bytes = path, n
		s.diskUsed += n
	}
	e.el = s.spillLRU.PushFront(e)
	s.coldBytes += e.Bytes
	s.spills++
	s.enforceSpillCap()
}

// writeSpill serializes g under the spill dir as <id>.dcsr. Called with mu
// held: a spill write stalls the store, which is the price of never
// dropping a graph the disk can still hold. The write targets a temp name
// and renames into place so a crash never leaves a half image at a
// resolvable path.
func (s *GraphStore) writeSpill(id string, g *graph.Graph) (string, int64, error) {
	final := filepath.Join(s.spillDir, id+".dcsr")
	f, err := os.CreateTemp(s.spillDir, id+".tmp-*")
	if err != nil {
		return "", 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := g.WriteDCSR(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), final)
	}
	if err != nil {
		os.Remove(f.Name())
		return "", 0, err
	}
	return final, n, nil
}

// enforceSpillCap deletes cold images oldest-first until the disk budget
// holds. Images backing resident mmap'd graphs are not deletable; if they
// alone exceed the budget the store carries the overage until they cool.
func (s *GraphStore) enforceSpillCap() {
	if s.spillCap <= 0 {
		return
	}
	for s.diskUsed > s.spillCap {
		oldest := s.spillLRU.Back()
		if oldest == nil {
			break
		}
		s.remove(oldest.Value.(*entry))
		s.spillDrops++
	}
}

// unindex drops e from the ID and spec indexes.
func (s *GraphStore) unindex(e *entry) {
	delete(s.items, e.id)
	if e.specKey != "" {
		delete(s.bySpec, e.specKey)
	}
}

// remove forgets e entirely, resident or cold, deleting its image.
func (s *GraphStore) remove(e *entry) {
	if e.g != nil {
		s.release(e)
	} else {
		s.spillLRU.Remove(e.el)
		s.coldBytes -= e.Bytes
	}
	s.unindex(e)
	if e.Path != "" {
		s.diskUsed -= e.Bytes
		os.Remove(e.Path)
	}
}

// readmit pages a cold entry's image back in under its ID. The image is
// verified in full first: it sat on disk, where anything may have changed
// it, and the O(1) page map checks only the header, so an out-of-range
// neighbor entry would otherwise reach the algorithms. Verifying reads the
// whole image, so the open and verify run with mu released: the entry stays
// cold meanwhile, and a concurrent lookup of it waits for this readmission
// instead of starting its own. On an open or verify failure the image is
// dropped (counted and logged). Called with mu held; returns with mu held,
// after which the caller re-checks the entry's state.
func (s *GraphStore) readmit(e *entry) {
	if e.opening != nil {
		done := e.opening
		s.mu.Unlock()
		<-done
		s.mu.Lock()
		return
	}
	done := make(chan struct{})
	e.opening = done
	s.mu.Unlock()
	mg, err := s.openImage(e.Path)
	if err == nil {
		if err = mg.Verify(); err != nil {
			mg.Close()
		}
	}
	s.mu.Lock()
	e.opening = nil
	close(done)
	if s.items[e.id] != e { // dropped while unlocked (disk budget, spec replaced)
		if err == nil {
			mg.Close()
		}
		return
	}
	if err != nil {
		s.log.Warn("spill image dropped", "graph", e.id, "path", e.Path, "err", err)
		s.remove(e)
		s.spillDrops++
		return
	}
	s.spillLRU.Remove(e.el)
	s.coldBytes -= e.Bytes
	e.g, e.Mapped = mg.Graph, mg.Mapped()
	// admit cannot fail for a mapped entry; a heap fallback too heavy for
	// the whole store is forgotten.
	if err := s.admit(e); err != nil {
		e.g = nil
		s.unindex(e)
		s.diskUsed -= e.Bytes
		os.Remove(e.Path)
		return
	}
	s.readmits++
}

// materialize makes e resident — a recency bump, or a readmission from its
// image — and reports how: "ram" for a heap-resident graph, "mmap" for one
// whose arrays are (or were re-admitted as) a page-mapped .dcsr image. It
// fails once e is no longer indexed: its image was dropped, or a concurrent
// removal beat the readmission. Called with mu held, which readmit releases
// and re-takes.
func (s *GraphStore) materialize(e *entry) (source string, ok bool) {
	for e.g == nil {
		if s.items[e.id] != e {
			return "", false
		}
		s.readmit(e)
	}
	s.touch(e)
	return residentSource(e), true
}

// Resolve returns the graph for id, bumping its recency, along with how it
// materialized (see materialize).
func (s *GraphStore) Resolve(id string) (*graph.Graph, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.items[id]; e != nil {
		if source, ok := s.materialize(e); ok {
			s.hits++
			return e.g, source, true
		}
	}
	s.misses++
	return nil, "", false
}

// Len returns the number of resident graphs.
func (s *GraphStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Used returns the resident heap weight and the capacity.
func (s *GraphStore) Used() (used, capacity int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, s.cap
}

// Evicted returns how many graphs the LRU bound has pushed out of RAM
// (spilled or forgotten).
func (s *GraphStore) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// HitsMisses returns the lookup counters: hits are Resolve or AddSpec
// calls answered by a resident or spilled graph without generating; misses
// are failed lookups and AddSpec calls that had to generate (including
// generate work thrown away to a racing identical upload).
func (s *GraphStore) HitsMisses() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// SpillStats is a snapshot of the out-of-core side of the store. Its JSON
// form is the spill part of the graphs block in /v1/stats and /healthz.
type SpillStats struct {
	Enabled       bool  `json:"-"`
	SpilledGraphs int   `json:"spilled"`       // cold images on disk
	SpilledBytes  int64 `json:"spilled_bytes"` // bytes of cold images
	DiskBytes     int64 `json:"-"`             // all owned .dcsr bytes (cold + resident mapped)
	MappedBytes   int64 `json:"mapped_bytes"`  // bytes backing resident mmap'd graphs
	Spills        int64 `json:"spills"`        // evictions that kept an image
	Readmits      int64 `json:"readmissions"`  // spilled graphs paged back in
	Drops         int64 `json:"spill_drops"`   // images deleted (disk budget, failed reopen or verify)
}

// Spill returns the current spill snapshot.
func (s *GraphStore) Spill() SpillStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpillStats{
		Enabled:       s.spillDir != "",
		SpilledGraphs: s.spillLRU.Len(),
		SpilledBytes:  s.coldBytes,
		DiskBytes:     s.diskUsed,
		MappedBytes:   s.mappedBytes,
		Spills:        s.spills,
		Readmits:      s.readmits,
		Drops:         s.spillDrops,
	}
}

// SpillDir returns the spill directory ("" when spilling is disabled).
func (s *GraphStore) SpillDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spillDir
}
