// Package obs is the observability substrate of the optimizer and the
// execution engine: typed events (journal.go) recorded through one per-run
// Recorder (recorder.go), which folds each into a metrics registry
// (counters, gauges, histograms with lock-free atomic hot paths) and
// stamps it with its run's id before the flight-recorder journal receives
// it. A run's one artefact is the journal: its summary trailer carries the
// registry's final snapshot (`etlvet obs -format snapshot` prints it), and
// its span tree is a function of its events (Spans, span.go), written as
// trace-event JSON by `etlvet obs -format trace`.
//
// Two properties shape the design:
//
//   - Near-zero cost when disabled. Every handle is nil-safe: methods on a
//     nil *Recorder, *Journal, *Counter, *Gauge or *Histogram are no-ops,
//     so instrumented code holds handles unconditionally and pays one
//     predictable nil check per event when collection is off — no
//     interface dispatch, no map lookups, no allocation.
//
//   - Collection never influences computation. Instruments are write-only
//     from the instrumented code's point of view: the search and the
//     engine record into them but never read them back, so results are
//     bit-identical with metrics on or off (pinned by the determinism
//     tests in internal/core). Wall-clock timestamps stay inside the
//     package — snapshots report durations and offsets, never absolute
//     times.
//
// All of it is standard library only.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// now is the package's single wall-clock source, indirected so tests can
// pin it. Observability timing is presentation-only: nothing read from
// the clock ever feeds back into search or execution results.
var now = time.Now

// Counter is a monotonically increasing integer series. The zero value of
// a registered counter is ready; a nil *Counter ignores every call.
type Counter struct {
	family string
	series string
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for the series to stay monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the full series name, labels included.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.series
}

// Gauge is an instantaneous float64 value (set or accumulated). A nil
// *Gauge ignores every call.
type Gauge struct {
	family string
	series string
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates d with a compare-and-swap loop, so concurrent adders
// never lose updates.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the full series name, labels included.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.series
}

// Histogram accumulates observations into fixed buckets. Observations and reads are lock-free;
// a nil *Histogram ignores every call.
type Histogram struct {
	family string
	series string
	// bounds are the ascending inclusive upper bounds of the finite
	// buckets; counts has one extra slot for the implicit +Inf bucket.
	bounds  []float64
	counts  []atomic.Int64
	total   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is the default bucket layout for second-valued histograms:
// exponential from 1µs to ~16s.
var DefBuckets = []float64{
	0.000001, 0.000004, 0.000016, 0.000064, 0.000256, 0.001024,
	0.004096, 0.016384, 0.065536, 0.262144, 1.048576, 4.194304, 16.777216,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the +Inf slot catches the
	// rest.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Name returns the full series name, labels included.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.series
}

// Registry holds a process- or run-scoped set of named instruments. A nil
// *Registry is the disabled state: its instrument constructors return nil
// handles, which no-op.
//
// Series are identified by a metric family name plus optional label
// key/value pairs; the same (family, labels) always returns the same
// instrument, so concurrent registration is idempotent.
type Registry struct {
	created time.Time

	mu         sync.Mutex
	counters   map[seriesKey]*Counter
	gauges     map[seriesKey]*Gauge
	histograms map[seriesKey]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		created:    now(),
		counters:   make(map[seriesKey]*Counter),
		gauges:     make(map[seriesKey]*Gauge),
		histograms: make(map[seriesKey]*Histogram),
	}
}

// seriesKey identifies a series by its family and up to two label pairs,
// ordered by key, so finding a registered instrument renders no name; a
// series with more labels is keyed by its rendered name.
type seriesKey struct{ family, k1, v1, k2, v2 string }

func keyOf(family string, labels []string) seriesKey {
	switch {
	case len(labels) < 2:
		return seriesKey{family: family}
	case len(labels) < 4:
		return seriesKey{family: family, k1: labels[0], v1: labels[1]}
	case len(labels) >= 6:
		return seriesKey{family: seriesName(family, labels)}
	case labels[2] < labels[0]:
		return seriesKey{family, labels[2], labels[3], labels[0], labels[1]}
	}
	return seriesKey{family, labels[0], labels[1], labels[2], labels[3]}
}

// seriesName renders family plus label pairs as a canonical series name:
// labels sorted by key, values escaped. An odd trailing label is dropped.
func seriesName(family string, labels []string) string {
	if len(labels) < 2 {
		return family
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
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

// Counter returns (registering on first use) the counter for the family
// and label pairs. Nil registry → nil handle.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := keyOf(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	c := &Counter{family: family, series: seriesName(family, labels)}
	r.counters[k] = c
	return c
}

// Gauge returns (registering on first use) the gauge for the family and
// label pairs. Nil registry → nil handle.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := keyOf(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g := &Gauge{family: family, series: seriesName(family, labels)}
	r.gauges[k] = g
	return g
}

// Histogram returns (registering on first use) the histogram for the
// family and label pairs. buckets are ascending finite upper bounds; nil
// means DefBuckets. The bucket layout of the first registration wins.
// Nil registry → nil handle.
func (r *Registry) Histogram(family string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	k := keyOf(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[k]; ok {
		return h
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{
		family: family,
		series: seriesName(family, labels),
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[k] = h
	return h
}

// Uptime returns how long the registry has existed.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return now().Sub(r.created)
}
