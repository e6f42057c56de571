// Package telemetry is a stdlib-only metrics layer for the PBIO
// wire-path: atomic counters and gauges, fixed-log-bucket latency
// histograms, labeled metric families and a Prometheus-text exporter
// served over net/http.  (Discrete events are internal/flightrec's,
// spans internal/telemetry/tracectx's.)
//
// The paper's whole argument is quantitative — zero sender-side encode
// cost, cheap or DCG-compiled conversion, zero-copy homogeneous receives
// — and this package is how the reproduction sees those quantities at
// run time instead of only in offline benchmarks.
//
// # Nil safety
//
// Every type in this package is safe to use through a nil pointer: a nil
// *Registry hands out nil *Counter/*Gauge/*Histogram/*…Vec values, and
// every mutating method on a nil metric is a no-op.  Instrumented code
// therefore carries no "is telemetry on?" conditionals — it calls
// c.Inc() unconditionally, and with telemetry disabled the whole path
// costs one predictable nil-check branch per call site, keeping the hot
// paths within noise of their uninstrumented baselines.
package telemetry

import (
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.  No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.  No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.  No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (n may be negative).  No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket geometry: fixed log2 buckets.  Bucket i counts
// observations v with v <= 1<<(histMinShift+i); observations above the
// last bound land in the implicit +Inf bucket.  With histMinShift 7 and
// 28 buckets the bounds run 128ns .. ~17s when observations are
// nanoseconds — wide enough for a plan lookup and a chaos-length stall
// alike, at a fixed 28 atomics of storage.
const (
	histMinShift = 7
	histBuckets  = 28
)

// Histogram is a fixed-log-bucket histogram of int64 observations
// (by convention nanoseconds).  All methods are atomic; Observe is
// wait-free.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	inf     atomic.Int64 // observations above the last bound
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.  No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	idx := 0
	if v > 1<<histMinShift {
		// ceil(log2(v)) - histMinShift: the smallest bound holding v.
		idx = bits.Len64(uint64(v-1)) - histMinShift
	}
	if idx >= histBuckets {
		h.inf.Add(1)
		return
	}
	h.buckets[idx].Add(1)
}

// ObserveN records n observations of the same value in one shot — the
// bulk form bridges feeding bucket deltas from an external histogram
// (runtime/metrics) need.  No-op on a nil histogram or n <= 0.
func (h *Histogram) ObserveN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	idx := 0
	if v > 1<<histMinShift {
		idx = bits.Len64(uint64(v-1)) - histMinShift
	}
	if idx >= histBuckets {
		h.inf.Add(n)
		return
	}
	h.buckets[idx].Add(n)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketBound returns the upper bound of bucket i.
func BucketBound(i int) int64 { return 1 << (histMinShift + i) }

// Snapshot captures the histogram for programmatic reads — quantile
// estimates included.  Nil-safe (a zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// snapshotHist captures a consistent-enough view for export.  Buckets
// are read individually; a concurrent Observe may appear in count/sum
// before its bucket or vice versa, which Prometheus tolerates.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Buckets = make([]int64, histBuckets)
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Inf = h.inf.Load()
	s.fillQuantiles()
	return s
}

// metricKind discriminates family types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "counter"
}

// child is one labeled series within a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() int64
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) getOrCreate(values []string) *child {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.counter = new(Counter)
		case kindGauge:
			c.gauge = new(Gauge)
		case kindHistogram:
			c.hist = new(Histogram)
		}
		f.children[key] = c
	}
	return c
}

// sortedChildren returns the family's series ordered by label values,
// for deterministic export.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// Registry holds metric families in registration order.  All methods are
// safe for concurrent use and safe on a nil receiver (returning nil
// metrics).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	// handlers are extra debug endpoints mounted on the registry's
	// ServeMux (see Handle in export.go) — the hook that lets
	// subsystems with their own export formats (tracectx's Chrome
	// trace JSON, say) ride the same -metrics-addr listener without
	// this package importing them.
	handlers map[string]http.Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// fam returns the named family, creating it on first use.  Registering
// the same name twice returns the first family — instrumented packages
// can therefore build their metric sets independently against a shared
// registry without coordinating "who registers first".  A name reused
// with a different kind or label arity panics: that is a programming
// error, not a runtime condition.
func (r *Registry) fam(name, help string, kind metricKind, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with different type or labels", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*child),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter returns the named unlabeled counter, creating it on first use.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindCounter, nil).getOrCreate(nil).counter
}

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindGauge, nil).getOrCreate(nil).gauge
}

// Histogram returns the named unlabeled histogram, creating it on first
// use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindHistogram, nil).getOrCreate(nil).hist
}

// CounterFunc registers a counter whose value is read from fn at export
// time — the bridge for components that already keep their own atomic
// counters (the relay's Stats, say) and should not double-count.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kindCounterFunc, nil)
	c := f.getOrCreate(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kindGaugeFunc, nil)
	c := f.getOrCreate(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// CounterFuncVec is a labeled counter family whose series values are
// read from functions at export time — the labeled form of CounterFunc,
// for components that keep per-key atomic counters of their own (the
// relay's per-format accounting, say) and must not double-count.
type CounterFuncVec struct{ f *family }

// CounterFuncVec returns the named labeled export-time-read counter
// family.
func (r *Registry) CounterFuncVec(name, help string, labelNames ...string) *CounterFuncVec {
	if r == nil {
		return nil
	}
	return &CounterFuncVec{f: r.fam(name, help, kindCounterFunc, labelNames)}
}

// With binds fn as the series for the given label values (replacing any
// previous binding).  Nil-safe on a nil vec.
func (v *CounterFuncVec) With(fn func() int64, labelValues ...string) {
	if v == nil {
		return
	}
	c := v.f.getOrCreate(labelValues)
	v.f.mu.Lock()
	c.fn = fn
	v.f.mu.Unlock()
}

// GaugeFuncVec is a labeled gauge family whose series values are read
// from functions at export time.
type GaugeFuncVec struct{ f *family }

// GaugeFuncVec returns the named labeled export-time-read gauge family.
func (r *Registry) GaugeFuncVec(name, help string, labelNames ...string) *GaugeFuncVec {
	if r == nil {
		return nil
	}
	return &GaugeFuncVec{f: r.fam(name, help, kindGaugeFunc, labelNames)}
}

// With binds fn as the series for the given label values.
func (v *GaugeFuncVec) With(fn func() int64, labelValues ...string) {
	if v == nil {
		return
	}
	c := v.f.getOrCreate(labelValues)
	v.f.mu.Lock()
	c.fn = fn
	v.f.mu.Unlock()
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.fam(name, help, kindCounter, labelNames)}
}

// With returns the counter for the given label values, creating it on
// first use.  Resolve children once, off the hot path, and keep the
// returned *Counter: With takes a lock and builds a map key.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelValues).counter
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.fam(name, help, kindGauge, labelNames)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelValues).gauge
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.fam(name, help, kindHistogram, labelNames)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(labelValues).hist
}

// HistogramSnapshot is an exported view of one histogram.  P50/P90/P99
// are estimates interpolated from the log2 buckets (see Quantile); they
// ride the JSON export so consumers need not re-derive them.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"-"`   // per-bucket (non-cumulative) counts
	Inf     int64   `json:"inf"` // observations above the last bound
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

// SeriesSnapshot is one labeled series of a metric family.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     int64              `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// MetricSnapshot is an exported view of one family.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every family for programmatic consumption (the JSON
// exporter and cmd/wireperf's conversion-path report are built on it).
// Families appear in registration order, series sorted by label values.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(fams))
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, c := range f.sortedChildren() {
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = make(map[string]string, len(f.labelNames))
				for i, n := range f.labelNames {
					if i < len(c.labelValues) {
						ss.Labels[n] = c.labelValues[i]
					}
				}
			}
			switch f.kind {
			case kindCounter:
				ss.Value = c.counter.Value()
			case kindGauge:
				ss.Value = c.gauge.Value()
			case kindCounterFunc, kindGaugeFunc:
				if c.fn != nil {
					ss.Value = c.fn()
				}
			case kindHistogram:
				h := c.hist.snapshot()
				ss.Histogram = &h
				ss.Value = h.Count
			}
			ms.Series = append(ms.Series, ss)
		}
		out = append(out, ms)
	}
	return out
}
