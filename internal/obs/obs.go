// Package obs is the repository's dependency-free observability kernel:
// atomic counters, gauges, and log-bucketed histograms, grouped in a
// Registry that renders the Prometheus text exposition format (version
// 0.0.4). It exists so the serving tier can export `GET /metrics` and the
// engine can account per-phase cost without pulling a third-party metrics
// client into go.mod.
//
// All instruments are safe for concurrent use and updates are lock-free
// (single atomic op for counters/gauges, two for a histogram observation).
// Registration takes a mutex but is expected at wiring time, not on hot
// paths; registering the same (name, labels) pair twice returns the same
// instrument.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative counter increment")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64 gauge (stored as atomic bits).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the number of finite buckets in every Histogram.
// Bucket i covers observations ≤ HistogramBase·2^i seconds; the smallest
// finite bound is 1 µs and the largest ≈ 2147 s, wide enough for any HTTP
// or job latency this service produces. One extra +Inf bucket catches
// overflow.
const (
	HistogramBuckets = 32
	HistogramBase    = 1e-6
)

// Histogram is a fixed-layout log₂-bucketed histogram of float64
// observations (seconds by convention). Observation is two atomic adds;
// quantile estimation is O(buckets) with no sorting and no sample
// retention, which is what lets /v1/stats drop its sort-on-snapshot ring
// buffer.
type Histogram struct {
	buckets [HistogramBuckets + 1]atomic.Int64 // [HistogramBuckets] is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated

	// exemplars holds one recent traced observation per bucket — the
	// causal link from a latency bucket back to a concrete trace ID,
	// rendered as OpenMetrics exemplars. last mirrors the most recent
	// traced observation across all buckets (what /v1/stats surfaces).
	exemplars [HistogramBuckets + 1]atomic.Pointer[Exemplar]
	last      atomic.Pointer[Exemplar]
}

// Exemplar is one concrete traced observation attached to a histogram
// bucket: the sampled value, the trace that produced it, and when.
type Exemplar struct {
	Value   float64
	TraceID string
	UnixNs  int64
}

// bucketBound returns the upper bound of finite bucket i in seconds.
func bucketBound(i int) float64 {
	return HistogramBase * float64(int64(1)<<uint(i))
}

// bucketFor returns the index of the first bucket whose upper bound admits
// v. The loop doubles a float bound exactly (powers of two), so bucket
// assignment is deterministic across platforms.
func bucketFor(v float64) int {
	bound := HistogramBase
	for i := 0; i < HistogramBuckets; i++ {
		if v <= bound {
			return i
		}
		bound *= 2
	}
	return HistogramBuckets
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveExemplar records one sample and attaches it as the exemplar of
// its bucket (and the histogram's most-recent exemplar), linking the
// bucket back to the trace that produced the observation. An empty
// traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID == "" {
		h.Observe(v)
		return
	}
	e := &Exemplar{Value: v, TraceID: traceID, UnixNs: time.Now().UnixNano()}
	h.exemplars[bucketFor(v)].Store(e)
	h.last.Store(e)
	h.Observe(v)
}

// LastExemplar returns the most recent traced observation, if any.
func (h *Histogram) LastExemplar() (Exemplar, bool) {
	if e := h.last.Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns the upper bound (seconds) of the bucket holding the
// nearest-rank p-th percentile observation (p in [0,100]). With zero
// observations it returns 0. Samples in the +Inf bucket report the largest
// finite bound — the histogram cannot resolve beyond its range.
func (h *Histogram) Quantile(p int) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	// Nearest rank, mirroring the serving tier's legacy percentile(): the
	// 1-based rank is ceil(p/100 · total), clamped to [1, total].
	rank := (total*int64(p) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i <= HistogramBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == HistogramBuckets {
				return bucketBound(HistogramBuckets - 1)
			}
			return bucketBound(i)
		}
	}
	return bucketBound(HistogramBuckets - 1) // unreachable: cum == total ≥ rank
}

// Labels is one series' label set. Rendering sorts keys, so any map order
// produces the same series identity and exposition line.
type Labels map[string]string

// metricKind is the TYPE line of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instrument inside a family.
type series struct {
	labels  string // rendered `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	fgauge  *FloatGauge
	gfunc   func() float64
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// lookup finds or creates the (name, labels) series, checking kind
// consistency, and runs set on it under the registry lock, so an
// instrument is created and published in one critical section. A name
// registered under two different kinds is a wiring bug and panics.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels, set func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	set(s)
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, kindCounter, labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or finds) an integer gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.gauge == nil && s.gfunc == nil && s.fgauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// FloatGauge registers (or finds) a float gauge series.
func (r *Registry) FloatGauge(name, help string, labels Labels) *FloatGauge {
	return r.lookup(name, help, kindGauge, labels, func(s *series) {
		if s.fgauge == nil && s.gauge == nil && s.gfunc == nil {
			s.fgauge = &FloatGauge{}
		}
	}).fgauge
}

// CounterFunc registers a counter series whose value is read at scrape time
// from a monotonic source some other structure owns (an eviction count a
// cache already tracks, say). fn must be safe to call concurrently and must
// never decrease.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, kindCounter, labels, func(s *series) { s.gfunc = fn })
}

// GaugeFunc registers a gauge series whose value is computed at scrape time
// — for quantities some other structure already owns (queue depth, cache
// weight) where mirroring into a stored gauge would just invite skew. fn
// must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, kindGauge, labels, func(s *series) { s.gfunc = fn })
}

// Histogram registers (or finds) a histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = &Histogram{}
		}
	}).hist
}

// snapshot copies every family and its series under the lock, families
// sorted by name. Rendering reads only the copies, so a scrape never races
// a concurrent registration; the instruments themselves are atomic.
func (r *Registry) snapshot() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		copies := make([]series, len(f.series))
		ptrs := make([]*series, len(f.series))
		for i, s := range f.series {
			copies[i] = *s
			ptrs[i] = &copies[i]
		}
		fams = append(fams, family{name: f.name, help: f.help, kind: f.kind, series: ptrs})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// writeSeries renders one series' sample lines (histograms with bucket
// exemplars when exemplars is true).
func writeSeries(b *strings.Builder, name string, s *series, exemplars bool) {
	switch {
	case s.hist != nil:
		writeHistogram(b, name, s, exemplars)
	case s.gfunc != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, formatValue(s.gfunc()))
	case s.fgauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, formatValue(s.fgauge.Value()))
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.gauge.Value())
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counter.Value())
	}
}

// formatValue renders a float without exponent surprises for integral
// values (Prometheus accepts both; integral rendering keeps golden tests
// readable).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format, families
// sorted by name and series by label signature, so output is deterministic
// for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshot() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			writeSeries(&b, f.name, s, false)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines,
// then _sum and _count. With exemplars true (OpenMetrics rendering) each
// bucket that holds a traced observation carries it as
// `# {trace_id="…"} value timestamp` — the exposition-level link from a
// latency bucket to the trace of one request that landed in it.
func writeHistogram(b *strings.Builder, name string, s *series, exemplars bool) {
	var cum int64
	for i := 0; i <= HistogramBuckets; i++ {
		cum += s.hist.buckets[i].Load()
		le := "+Inf"
		if i < HistogramBuckets {
			le = strconv.FormatFloat(bucketBound(i), 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket%s %d", name, histLabels(s.labels, le), cum)
		if exemplars {
			if e := s.hist.exemplars[i].Load(); e != nil {
				fmt.Fprintf(b, " # {trace_id=\"%s\"} %s %d.%03d",
					escapeLabel(e.TraceID), formatValue(e.Value),
					e.UnixNs/1e9, e.UnixNs%1e9/1e6)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatValue(s.hist.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, s.hist.Count())
}

// WriteOpenMetrics renders every family in the OpenMetrics text format
// (application/openmetrics-text): same families and values as
// WritePrometheus, plus histogram-bucket exemplars linking buckets to
// trace IDs, counter metadata with the `_total` suffix stripped per the
// OpenMetrics naming rules, and the mandatory `# EOF` terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshot() {
		meta := f.name
		if f.kind == kindCounter {
			meta = strings.TrimSuffix(meta, "_total")
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", meta, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", meta, f.kind)
		for _, s := range f.series {
			writeSeries(&b, f.name, s, true)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// histLabels splices the le label into an existing rendered label set.
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
