// Package tracectx is stdlib-only distributed tracing for the PBIO wire
// path: span identity, head-based sampling, a bounded collector of
// finished spans, and Chrome trace-event JSON export so traces load
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The model is deliberately small.  A sampled message gets a trace ID
// and a root span at the sender; the pair rides the wire as an optional
// extended record field (see internal/wire's TraceFieldName — the
// paper's type-extension mechanism, so non-tracing receivers decode the
// record unchanged).  Every hop that understands the field — relay,
// receiver — records its own spans locally, parented on the sender's
// root span, with its own clocks.  Nothing is mutated in flight; a
// cross-process trace is reassembled offline by joining span sets on the
// trace ID (cmd/pbio-trace, or Perfetto itself).
//
// All types follow the telemetry package's nil-safety convention: every
// method on a nil *Tracer or nil *Collector is a no-op (or returns the
// zero value), so instrumented code carries no "is tracing on?"
// conditionals beyond one predictable nil-check branch.
package tracectx

import (
	cryptorand "crypto/rand"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Phase names of the wire path.  Spans record which of the paper's
// phases they attribute time to; the set is closed (tracecheck enforces
// that span names and trace labels come from bounded constant sets).
const (
	PhaseSend   = "send"    // pbio Write, entry to return
	PhaseExtend = "extend"  // building the trace-extended record image
	PhaseFrame  = "frame"   // transport framing + the write syscall
	PhaseBatch  = "batch"   // record buffered in a write batch → flush
	PhaseWire   = "wire"    // sender frame write → receiver arrival
	PhaseRelay  = "relay"   // relay read → broadcast enqueue
	PhaseMatch  = "match"   // by-name field match / plan or program lookup
	PhaseConv   = "convert" // interp or DCG conversion of one record
	PhaseView   = "view"    // zero-copy homogeneous view
	PhaseFmtsrv = "fmtsrv"  // format-server round trip (process-local)
)

// Span is one finished, timed phase of one message (or a process-local
// event when Trace is zero).  Start carries the wall clock for
// cross-process alignment; Dur is measured on the monotonic clock.
type Span struct {
	Trace  uint64        // trace ID; 0 for process-local spans
	ID     uint64        // this span
	Parent uint64        // parent span ID; 0 for roots
	Name   string        // phase, from the Phase* constants
	Proc   string        // process/component that recorded it
	Start  time.Time     // wall-clock start
	Dur    time.Duration // monotonic duration
	Format string        // record format name, when known
	Path   string        // conversion path for PhaseConv (interp / dcg)
}

// End returns the span's wall-clock end.
func (s *Span) End() time.Time { return s.Start.Add(s.Dur) }

// Collector is a bounded drop-oldest buffer of finished spans.  Like the
// flight recorder it is cheap to feed (one mutex, no allocation) and
// overwrites the oldest span when full, counting every overwrite —
// dropped spans are accounted for, never silently lost.
type Collector struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	n       int
	dropped atomic.Int64
	total   atomic.Int64
}

// defaultSpanCap holds the recent past of a busy wire path: a message
// records ~5 spans across its hops, so 4096 spans ≈ the last 800
// messages per process.
const defaultSpanCap = 4096

// NewCollector returns a collector holding at most capacity spans
// (capacity < 1 selects the default).
func NewCollector(capacity int) *Collector {
	if capacity < 1 {
		capacity = defaultSpanCap
	}
	return &Collector{buf: make([]Span, capacity)}
}

// Add records one finished span.  No-op on a nil collector.
func (c *Collector) Add(s Span) {
	if c == nil {
		return
	}
	c.total.Add(1)
	c.mu.Lock()
	if c.n == len(c.buf) {
		c.dropped.Add(1)
	} else {
		c.n++
	}
	c.buf[c.next] = s
	c.next = (c.next + 1) % len(c.buf)
	c.mu.Unlock()
}

// Snapshot returns the held spans, oldest first.
func (c *Collector) Snapshot() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, c.n)
	start := c.next - c.n
	if start < 0 {
		start += len(c.buf)
	}
	for i := 0; i < c.n; i++ {
		out = append(out, c.buf[(start+i)%len(c.buf)])
	}
	return out
}

// Dropped returns how many spans were overwritten before export.
func (c *Collector) Dropped() int64 {
	if c == nil {
		return 0
	}
	return c.dropped.Load()
}

// Total returns how many spans were ever recorded (held + dropped).
func (c *Collector) Total() int64 {
	if c == nil {
		return 0
	}
	return c.total.Load()
}

// Len returns the number of spans currently held.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Tracer makes sampling decisions, mints IDs, and feeds a Collector.
// Safe for concurrent use; a nil Tracer is a valid disabled tracer.
type Tracer struct {
	proc      string
	threshold uint64 // sample when next PRNG draw < threshold
	state     atomic.Uint64
	col       *Collector
	sampled   atomic.Int64
	seen      atomic.Int64
	lost      atomic.Int64
}

// New returns a tracer for the named process/component with head-based
// sampling at rate (clamped to [0,1]) and a collector of the given
// capacity (< 1 selects the default).  rate 1 samples every message;
// rate 0 never samples but still collects spans handed to Record
// directly (a receiver does not sample — it follows the sender's
// decision carried on the wire).
func New(proc string, rate float64, capacity int) *Tracer {
	t := &Tracer{proc: proc, col: NewCollector(capacity)}
	switch {
	case rate >= 1:
		t.threshold = math.MaxUint64
	case rate <= 0 || math.IsNaN(rate):
		t.threshold = 0
	default:
		t.threshold = uint64(rate * float64(math.MaxUint64))
	}
	// Seed from crypto/rand so concurrently-started processes mint
	// disjoint ID streams; fall back to the only entropy the clock has.
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		var s uint64
		for _, b := range seed {
			s = s<<8 | uint64(b)
		}
		t.state.Store(s)
	} else {
		t.state.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// Proc returns the tracer's process/component name ("" for nil).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// Collector returns the tracer's span sink (nil for a nil tracer).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.col
}

// next advances the tracer's splitmix64 stream.  The additive constant
// is Weyl-sequence odd, so the atomic Add alone guarantees distinct
// states under concurrency; the mix turns them into uncorrelated draws.
func (t *Tracer) next() uint64 {
	x := t.state.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample draws one head-sampling decision.  Nil-safe: a nil tracer
// never samples.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	t.seen.Add(1)
	if t.threshold == 0 {
		return false
	}
	if t.threshold == math.MaxUint64 || t.next() < t.threshold {
		t.sampled.Add(1)
		return true
	}
	return false
}

// NewID mints a nonzero 64-bit identifier (trace or span).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	for {
		if id := t.next(); id != 0 {
			return id
		}
	}
}

// Record adds a finished span, stamping the tracer's process name.
// Nil-safe.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	s.Proc = t.proc
	t.col.Add(s)
}

// Seen and Sampled report the head-sampling traffic: messages offered
// and messages chosen.
func (t *Tracer) Seen() int64 {
	if t == nil {
		return 0
	}
	return t.seen.Load()
}

// Sampled returns how many Sample calls returned true.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// NoteLost counts a span this hop could not record — a traced frame
// discarded for corruption, for instance.  Lost spans are accounted,
// never silent; pbio-trace reports the count next to the joined traces.
func (t *Tracer) NoteLost() {
	if t != nil {
		t.lost.Add(1)
	}
}

// NoteLostN counts n spans lost at once — a discarded batch frame loses
// every record it carried.
func (t *Tracer) NoteLostN(n int) {
	if t != nil && n > 0 {
		t.lost.Add(int64(n))
	}
}

// Lost returns how many spans this hop discarded unrecorded.
func (t *Tracer) Lost() int64 {
	if t == nil {
		return 0
	}
	return t.lost.Load()
}

// ExportMetrics publishes the tracer's accounting on r — span and
// sampling counters under the pbio_trace_* namespace — and serves the
// collector as Chrome trace-event JSON at /debug/trace.json on r's
// debug mux.  Nil-safe on both sides.
func (t *Tracer) ExportMetrics(r *telemetry.Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("pbio_trace_spans_total",
		"Spans recorded by this process's tracer (held + dropped).", t.col.Total)
	r.CounterFunc("pbio_trace_spans_dropped_total",
		"Spans overwritten in the bounded collector before export.", t.col.Dropped)
	r.CounterFunc("pbio_trace_messages_seen_total",
		"Messages offered to the head sampler.", t.Seen)
	r.CounterFunc("pbio_trace_messages_sampled_total",
		"Messages the head sampler chose to trace.", t.Sampled)
	r.CounterFunc("pbio_trace_spans_lost_total",
		"Spans this hop discarded unrecorded (e.g. traced frames lost to corruption).", t.Lost)
	r.Handle("/debug/trace.json", t.Handler())
}
