// Package obs is the production observability core of the serving
// stack: a stdlib-only metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms with Prometheus text and JSON
// exposition), cheap stage tracing with a bounded ring of recent spans,
// an HTTP request-logging middleware over log/slog, and the build
// version stamp. Everything instruments without changing instrumented
// output: metrics are side channels, and spans are per stage
// invocation, never per record.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {outcome, recovered} on
// store_recovery_total. Families with labels expose one time series
// per distinct label set.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for a single label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone; the
// type does not police it, misuse just yields a nonsensical series).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (cache occupancy, in-flight
// requests); it moves both ways.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram: observations in
// seconds land in the first bucket whose upper bound is >= the value
// (Prometheus `le` semantics), with an implicit +Inf overflow bucket.
// Observation is lock-free: one atomic add on the bucket, the count,
// and the nanosecond sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds, seconds
	counts []atomic.Uint64
	inf    atomic.Uint64
	sumNS  atomic.Int64
	count  atomic.Uint64
}

// DefaultLatencyBuckets spans 100µs to 10s — wide enough for a
// sub-millisecond cached render and a multi-second paper-scale epoch
// generation on the same axis.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sumNS.Add(int64(seconds * 1e9))
}

// ObserveDuration records one observed duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations, in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNS.Load()) / 1e9 }

// cumulative returns the per-bound cumulative counts (Prometheus
// bucket semantics) plus the total including the +Inf bucket.
func (h *Histogram) cumulative() (counts []uint64, total uint64) {
	counts = make([]uint64, len(h.bounds))
	for i := range h.bounds {
		total += h.counts[i].Load()
		counts[i] = total
	}
	total += h.inf.Load()
	return counts, total
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the holding bucket, the way Prometheus'
// histogram_quantile does. It returns 0 with ok=false before any
// observation. Observations beyond the last finite bound clamp to it.
func (h *Histogram) Quantile(q float64) (seconds float64, ok bool) {
	counts, total := h.cumulative()
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	prev := uint64(0)
	lower := 0.0
	for i, c := range counts {
		if float64(c) >= rank {
			span := float64(c - prev)
			if span == 0 {
				return h.bounds[i], true
			}
			return lower + (h.bounds[i]-lower)*(rank-float64(prev))/span, true
		}
		prev, lower = c, h.bounds[i]
	}
	return h.bounds[len(h.bounds)-1], true // in the +Inf bucket: clamp
}

// Metric kinds, as exposed in the Prometheus TYPE line and the JSON
// snapshot.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// family is every time series sharing one metric name: a fixed kind
// and help string plus one child per distinct label set.
type family struct {
	name   string
	help   string
	kind   string
	bounds []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	labels []Label // sorted by key
	m      any     // *Counter, *Gauge, or *Histogram, per family kind
}

// Registry holds metric families and hands out their children.
// Lookups are cheap but not free — hot paths should capture the
// returned handle once, not re-resolve it per operation.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry. Most code uses Default();
// fresh registries are for tests that need isolation.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// defaultRegistry is the process-wide registry every package-level
// instrument registers into and /metrics exposes.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes a label set (sorted by key) into a map key.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// fam returns (creating if needed) the family of a name, panicking on
// a kind mismatch — two call sites registering one name as different
// types is a programming error no test should let through.
func (r *Registry) fam(name, help, kind string, bounds []float64) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.fams[name]; f == nil {
			f = &family{name: name, help: help, kind: kind, bounds: bounds, children: map[string]*child{}}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// childOf returns (creating if needed) the child of a label set.
func (f *family) childOf(labels []Label, make func() any) any {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := labelKey(sorted)
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[key]
	if c == nil {
		c = &child{labels: sorted, m: make()}
		f.children[key] = c
	}
	return c.m
}

// Counter returns the counter of name+labels, registering it on first
// use. Repeated calls with the same name and labels return the same
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.fam(name, help, KindCounter, nil)
	return f.childOf(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge of name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.fam(name, help, KindGauge, nil)
	return f.childOf(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram of name+labels with the given bucket
// upper bounds (nil means DefaultLatencyBuckets), registering it on
// first use. Bounds are fixed at family registration; later calls
// reuse the family's.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	f := r.fam(name, help, KindHistogram, bounds)
	return f.childOf(labels, func() any {
		return &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds))}
	}).(*Histogram)
}

// families returns the registered families sorted by name, and each
// family's children sorted by label key — the deterministic order both
// expositions use.
func (r *Registry) families() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	cs := make([]*child, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs = append(cs, f.children[k])
	}
	f.mu.Unlock()
	return cs
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
