// Package obs is a zero-dependency metrics substrate: named counters,
// gauges, and fixed-bucket histograms registered in a Registry that can
// render itself in the Prometheus text exposition format (GET /metrics)
// and as a JSON-friendly snapshot (folded into /stats).
//
// The package follows internal/fault's discipline for production code
// paths: a record site on the hot path is a handful of atomic operations
// and zero allocations —
//
//	var submits = reg.Counter("submits_total", "jobs submitted")
//	submits.Inc()                      // one atomic add
//	queueWait.Observe(int64(elapsed))  // bucket scan + two atomic adds
//
// — enforced by TestRecordSiteNoAlloc / BenchmarkRecordSite. All reads
// (exposition, snapshots, quantiles) are lock-free over the same atomics,
// so scraping never stalls recording.
//
// Histograms record int64 values in a raw unit (nanoseconds for
// durations, bytes for sizes) against a fixed ascending bucket-bound
// slice; the exported unit is raw × Scale (1e-9 for ns → seconds), so
// exposition speaks Prometheus-conventional base units while the hot
// path never touches floating point. Quantiles (p50/p95/p99) are
// estimated from the bucket counts by linear interpolation within the
// target bucket — exact at bucket boundaries, bounded by bucket width
// in between, which is the standard trade a fixed-bucket histogram
// makes for its O(1) memory and wait-free writes.
//
// Metric families may carry one label dimension (Vec variants): label
// children are created lazily under a mutex and cached by the caller or
// looked up per record — the lookup is a map read, so hot paths that
// care hold the child. A scrape holds that mutex only to copy the family
// and child lists; it reads values, calls CounterFunc/GaugeFunc
// callbacks and writes to the client with no lock held, so a callback
// may record into the same registry and a slow client stalls no record
// site.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n is a delta; counters only grow).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution of int64 observations. The
// bucket layout is immutable after construction; observing and reading
// are wait-free atomic operations. Values are recorded in a raw unit
// (e.g. nanoseconds) and exported multiplied by Scale (e.g. 1e-9 →
// seconds), so the hot path is integer-only.
type Histogram struct {
	bounds []int64         // ascending upper bounds (le, inclusive)
	counts []atomic.Uint64 // len(bounds)+1: one per bound + overflow (+Inf)
	sum    atomic.Int64    // sum of raw observed values
	scale  float64         // raw → exported unit
}

// Observe records one value: a linear scan over the (small, fixed)
// bound slice to find the bucket, then two atomic adds. No allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of raw observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution in raw units, by linear interpolation inside the bucket
// holding the target rank. The overflow bucket clamps to the largest
// finite bound (a +Inf estimate is useless for an SLO readout). Returns
// 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	// Snapshot counts once so a concurrent Observe cannot tear the
	// cumulative walk.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileFromCounts(q, h.bounds, counts, total)
}

// quantileFromCounts is the pure estimation core, shared with snapshots
// that already hold a consistent copy of the counts.
func quantileFromCounts(q float64, bounds []int64, counts []uint64, total uint64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: clamp to the largest finite bound.
			if len(bounds) == 0 {
				return 0
			}
			return float64(bounds[len(bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		hi := float64(bounds[i])
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	if len(bounds) == 0 {
		return 0
	}
	return float64(bounds[len(bounds)-1])
}

// DurationBuckets is the default latency layout: 100µs to 60s in a
// coarse exponential ladder, wide enough for both sub-millisecond cache
// hits and multi-second mining runs. Raw unit: nanoseconds.
func DurationBuckets() []int64 {
	ms := int64(time.Millisecond)
	return []int64{
		int64(100 * time.Microsecond), int64(250 * time.Microsecond), int64(500 * time.Microsecond),
		1 * ms, 2 * ms, 5 * ms, 10 * ms, 25 * ms, 50 * ms, 100 * ms, 250 * ms, 500 * ms,
		int64(time.Second), int64(2500 * time.Millisecond), int64(5 * time.Second),
		int64(10 * time.Second), int64(30 * time.Second), int64(60 * time.Second),
	}
}

// SecondsScale converts nanosecond observations to Prometheus-convention
// seconds at exposition time.
const SecondsScale = 1e-9

// metric is one registered family; kind drives exposition.
type metric struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	// exactly one of the following is set, depending on kind and
	// labelling; vec maps are guarded by the registry mutex.
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram

	label    string // label key for vec families ("" = unlabelled)
	children map[string]*metric
	// histogram construction template for vec children
	bounds []int64
	scale  float64
}

// Registry is a set of named metric families. Registration (typically
// at component construction) takes a mutex; recording on registered
// metrics is atomic-only.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metric
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metric)}
}

// register installs a family; duplicate or empty names panic (metric
// wiring is program structure — a collision is a bug worth failing
// loudly on, the same stance as the mine and fault registries).
func (r *Registry) register(m *metric) {
	if m.name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.families[m.name] = m
	r.order = append(r.order, m.name)
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: "counter", counter: c})
	return c
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time — the
// shape for occupancy values another component already tracks (queue
// depth, cache entries). fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: "gauge", gaugeFn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time —
// for monotonic tallies another component already maintains (a cache's
// hit count, a scheduler's retry total), so the component stays the
// single source of truth instead of double-counting into a mirror. fn
// must be monotonic and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: "counter", counterFn: fn})
}

// Histogram registers and returns a fixed-bucket histogram. bounds must
// be ascending; scale converts raw observations to the exported unit
// (use SecondsScale for nanosecond durations, 1 for bytes).
func (r *Registry) Histogram(name, help string, scale float64, bounds []int64) *Histogram {
	h := newHistogram(scale, bounds)
	r.register(&metric{name: name, help: help, kind: "histogram", histogram: h, bounds: bounds, scale: scale})
	return h
}

func newHistogram(scale float64, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d (%d after %d)", i, bounds[i], bounds[i-1]))
		}
	}
	if scale == 0 {
		scale = 1
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1), scale: scale}
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct {
	r *Registry
	m *metric
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := &metric{name: name, help: help, kind: "counter", label: label, children: make(map[string]*metric)}
	r.register(m)
	return &CounterVec{r: r, m: m}
}

// With returns the child counter for the label value, creating it on
// first use. Hot paths should hold the child rather than look it up per
// record.
func (v *CounterVec) With(value string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	child, ok := v.m.children[value]
	if !ok {
		child = &metric{name: v.m.name, kind: "counter", counter: &Counter{}}
		v.m.children[value] = child
	}
	return child.counter
}

// HistogramVec is a histogram family with one label dimension; children
// share the family's bucket layout and scale.
type HistogramVec struct {
	r *Registry
	m *metric
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help, label string, scale float64, bounds []int64) *HistogramVec {
	if scale == 0 {
		scale = 1
	}
	m := &metric{
		name: name, help: help, kind: "histogram", label: label,
		children: make(map[string]*metric), bounds: bounds, scale: scale,
	}
	r.register(m)
	return &HistogramVec{r: r, m: m}
}

// With returns the child histogram for the label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	child, ok := v.m.children[value]
	if !ok {
		child = &metric{name: v.m.name, kind: "histogram", histogram: newHistogram(v.m.scale, v.m.bounds)}
		v.m.children[value] = child
	}
	return child.histogram
}

// family is one registered metric as a scrape sees it: for a vec, its
// children and their label values in label order (stable exposition and
// snapshots). The embedded metric's children map is read only under
// r.mu; the field itself never changes, so a nil check marks a vec.
type family struct {
	*metric
	labels []string
	kids   []*metric
}

// collect copies the family list, and each vec's children, under r.mu;
// scrapes then read values and call callbacks with no lock held.
func (r *Registry) collect() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.order))
	for i, name := range r.order {
		m := r.families[name]
		f := family{metric: m}
		for lv := range m.children {
			f.labels = append(f.labels, lv)
		}
		sort.Strings(f.labels)
		for _, lv := range f.labels {
			f.kids = append(f.kids, m.children[lv])
		}
		out[i] = f
	}
	return out
}

// HistogramSnapshot is the JSON-friendly readout of one histogram: the
// count, the sum and quantiles in the exported unit.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return HistogramSnapshot{
		Count: total,
		Sum:   float64(h.sum.Load()) * h.scale,
		P50:   quantileFromCounts(0.50, h.bounds, counts, total) * h.scale,
		P95:   quantileFromCounts(0.95, h.bounds, counts, total) * h.scale,
		P99:   quantileFromCounts(0.99, h.bounds, counts, total) * h.scale,
	}
}

// Snapshot renders every family as a JSON-friendly value keyed by
// metric name: counters and gauges as numbers, histograms as
// HistogramSnapshot, vec families as a map keyed by label value. The
// same numbers /metrics exposes, shaped for a JSON stats blob.
func (r *Registry) Snapshot() map[string]any {
	fams := r.collect()
	out := make(map[string]any, len(fams))
	for _, m := range fams {
		name := m.name
		switch {
		case m.children != nil:
			byLabel := make(map[string]any, len(m.kids))
			for i, c := range m.kids {
				if c.counter != nil {
					byLabel[m.labels[i]] = c.counter.Value()
				} else {
					byLabel[m.labels[i]] = snapshotHistogram(c.histogram)
				}
			}
			out[name] = byLabel
		case m.counter != nil:
			out[name] = m.counter.Value()
		case m.counterFn != nil:
			out[name] = m.counterFn()
		case m.gaugeFn != nil:
			out[name] = m.gaugeFn()
		case m.gauge != nil:
			out[name] = m.gauge.Value()
		case m.histogram != nil:
			out[name] = snapshotHistogram(m.histogram)
		}
	}
	return out
}
