package pbio

import (
	"repro/internal/dcg"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// WithFlightRecorder attaches a flight recorder to the context: format
// registrations, DCG compilations and transport faults (checksum
// failures, deadline timeouts) on the context's streams are journaled
// as discrete events.  All emission sites are cold — registration,
// compilation, error paths — so the recorder costs the hot path
// nothing; see internal/flightrec for the journal itself.
func WithFlightRecorder(r *flightrec.Recorder) Option {
	return func(c *Context) error {
		c.flight = r
		return nil
	}
}

// FlightRecorder returns the context's flight recorder (nil when none
// is attached).
func (c *Context) FlightRecorder() *flightrec.Recorder { return c.flight }

// WithTelemetry attaches a telemetry registry to the context.  Every
// Writer, Reader, Format and conversion engine created from the context
// then records wire-path metrics on it: records and bytes moved, the
// conversion path taken per decode (zero-copy / interpreted / DCG —
// the paper's three receive regimes), plan-build and codegen latency,
// and DCG cache traffic.  Serve the registry over HTTP with
// internal/telemetry.Serve, or read it programmatically via Snapshot.
//
// Telemetry is off by default and its disabled cost is one nil-check
// branch per event, so contexts without a registry perform as before.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(c *Context) error {
		c.tel = r
		return nil
	}
}

// Telemetry returns the context's registry (nil when telemetry is off).
func (c *Context) Telemetry() *telemetry.Registry { return c.tel }

// decodePath is the conversion path a decode took — the paper's receive
// regimes — and the index of its series in the per-path metric arrays.
type decodePath uint8

const (
	pathZeroCopy decodePath = iota
	pathInterp
	pathDCG
	pathDCGBatch // the compiled engine entered once per batch frame
	numPaths
)

// pathNames are the path label values, on metrics and on spans.
var pathNames = [numPaths]string{"zero_copy", "interp", "dcg", "dcg_batch"}

// ctxMetrics is the pbio-level metric set.  The zero value is a valid
// no-op set (all handles nil); contexts without telemetry share
// nopCtxMetrics so instrumented code never nil-checks the struct.
type ctxMetrics struct {
	enabled bool

	recordsSent *telemetry.CounterVec // labels: format
	recordsRecv *telemetry.Counter

	decodes *telemetry.CounterVec // labels: format, path

	// decodeNanos is pbio_decode_nanos resolved per path (With is a lock
	// + map lookup; resolve once here, off the hot path).  One
	// observation per decode call: a record for DecodeInto, a frame for
	// DecodeBatch — the decodes counter still advances per record, so
	// records/observation is the realized batch size.  A View is not
	// timed: zero_copy stays nil.
	decodeNanos [numPaths]*telemetry.Histogram

	// First-sight work, fed from the pair table's OnBuild hook
	// (noteBuild); cacheHits counts the table lookups that compiled
	// nothing.
	cacheHits, cacheMisses *telemetry.Counter
	compileNanos           *telemetry.Histogram
	planBuilds             *telemetry.Counter
	planBuildNanos         *telemetry.Histogram
}

var nopCtxMetrics = &ctxMetrics{}

// initTelemetry wires the context's engines to the registry — and the
// flight recorder, which works with or without a registry.  Called
// once from NewContext after options are applied.
func (c *Context) initTelemetry() {
	if c.tel != nil || c.flight != nil {
		c.cache.OnBuild = c.noteBuild
	}
	if c.tel == nil {
		c.met = nopCtxMetrics
		if c.flight != nil {
			// No registry, but transport faults must still reach the
			// journal: give the streams a metric set that is empty
			// except for the flight sink.  (Never mutate the shared
			// no-op set.)
			c.tmet = &transport.Metrics{Flight: c.flight}
		}
		return
	}
	if c.tracer != nil {
		// Span/sampling counters plus /debug/trace.json on the registry's
		// HTTP surface.
		c.tracer.ExportMetrics(c.tel)
	}
	c.tmet = transport.NewMetrics(c.tel)
	if c.flight != nil {
		// NewMetrics built a fresh set for this registry; attaching the
		// sink here never touches the shared no-op set.
		c.tmet.Flight = c.flight
		c.flight.ExportMetrics(c.tel)
	}
	c.met = &ctxMetrics{
		enabled: true,
		recordsSent: c.tel.CounterVec("pbio_records_sent_total",
			"Records transmitted, by format.", "format"),
		recordsRecv: c.tel.Counter("pbio_records_received_total",
			"Data messages received."),
		decodes: c.tel.CounterVec("pbio_decodes_total",
			"Records decoded, by expected format and conversion path "+
				"(zero_copy, interp, dcg, dcg_batch — the paper's three "+
				"receive regimes; dcg_batch is the compiled engine entered "+
				"once per batch frame).",
			"format", "path"),
		cacheHits:      c.tel.Counter("pbio_dcg_cache_hits_total", "Conversion-program cache hits."),
		cacheMisses:    c.tel.Counter("pbio_dcg_cache_misses_total", "Conversion-program cache misses (each one compiles)."),
		compileNanos:   c.tel.Histogram("pbio_dcg_compile_nanos", "Latency of one conversion-program compilation, nanoseconds."),
		planBuilds:     c.tel.Counter("pbio_convert_plan_builds_total", "Conversion plans built (once per wire/native format pair)."),
		planBuildNanos: c.tel.Histogram("pbio_convert_plan_build_nanos", "Latency of conversion plan construction, nanoseconds."),
	}
	decodeNanos := c.tel.HistogramVec("pbio_decode_nanos",
		"Latency of one record conversion on the receive path, nanoseconds.", "path")
	for p := pathInterp; p < numPaths; p++ {
		c.met.decodeNanos[p] = decodeNanos.With(pathNames[p])
	}
}

// noteBuild is the pair table's OnBuild hook, the one place first-sight
// work is counted, timed and journaled.
func (c *Context) noteBuild(b dcg.Build) {
	if b.Program == nil {
		c.met.planBuilds.Inc()
		c.met.planBuildNanos.Observe(b.Nanos)
		return
	}
	// The lookup that compiled counted itself a hit on its way in (see
	// Message.resolve); take that back.
	c.met.cacheHits.Add(-1)
	c.met.cacheMisses.Inc()
	c.met.compileNanos.Observe(b.Nanos)
	runs, words, steps := b.Program.Stats()
	c.flight.Emit(flightrec.KindDCGCompile, b.Plan.Wire.Name, 0, b.Nanos,
		flightrec.BatchShape(int64(runs), int64(words), int64(steps)))
}

// formatMetrics is the per-Format resolved counter set, bound once at
// Register time so the send and decode hot paths touch no maps and
// build no label keys.  The zero value is a valid no-op set.
type formatMetrics struct {
	sent *telemetry.Counter
	dec  [numPaths]*telemetry.Counter // pbio_decodes_total, by path
}

// bindFormatMetrics resolves the per-format counters for name.
func (c *Context) bindFormatMetrics(name string) (fm formatMetrics) {
	if !c.met.enabled {
		return fm
	}
	fm.sent = c.met.recordsSent.With(name)
	for p := range fm.dec {
		fm.dec[p] = c.met.decodes.With(name, pathNames[p])
	}
	return fm
}
