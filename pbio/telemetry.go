package pbio

import (
	"repro/internal/convert"
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

// Conversion path label values, matching the paper's receive regimes.
const (
	pathZeroCopy = "zero_copy"
	pathInterp   = "interp"
	pathDCG      = "dcg"
	pathDCGBatch = "dcg_batch"
)

// ctxMetrics is the pbio-level metric set.  The zero value is a valid
// no-op set (all handles nil); contexts without telemetry share
// nopCtxMetrics so instrumented code never nil-checks the struct.
type ctxMetrics struct {
	enabled bool

	recordsSent *telemetry.CounterVec // labels: format
	recordsRecv *telemetry.Counter

	decodes     *telemetry.CounterVec   // labels: format, path
	decodeNanos *telemetry.HistogramVec // labels: path

	// Pre-resolved per-path histograms (With is a lock + map lookup;
	// resolve once here, off the hot path).  dcgBatchNanos observes one
	// latency per batch frame, not per record — the decodes counter
	// still advances per record, so records/observation is the realized
	// batch size.
	interpNanos   *telemetry.Histogram
	dcgNanos      *telemetry.Histogram
	dcgBatchNanos *telemetry.Histogram
}

var nopCtxMetrics = &ctxMetrics{}

// initTelemetry wires the context's engines to the registry — and the
// flight recorder, which works with or without a registry.  Called
// once from NewContext after options are applied.
func (c *Context) initTelemetry() {
	if c.flight != nil {
		c.cache.SetFlight(c.flight)
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
	c.convMet = convert.NewMetrics(c.tel)
	c.cache.SetMetrics(dcg.NewMetrics(c.tel), c.convMet)
	c.tmet = transport.NewMetrics(c.tel)
	if c.flight != nil {
		// NewMetrics built a fresh set for this registry; attaching the
		// sink here never touches the shared no-op set.
		c.tmet.Flight = c.flight
		c.flight.ExportMetrics(c.tel)
	}
	decodeNanos := c.tel.HistogramVec("pbio_decode_nanos",
		"Latency of one record conversion on the receive path, nanoseconds.", "path")
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
		decodeNanos:   decodeNanos,
		interpNanos:   decodeNanos.With(pathInterp),
		dcgNanos:      decodeNanos.With(pathDCG),
		dcgBatchNanos: decodeNanos.With(pathDCGBatch),
	}
}

// formatMetrics is the per-Format resolved counter set, bound once at
// Register time so the send and decode hot paths touch no maps and
// build no label keys.  The zero value is a valid no-op set.
type formatMetrics struct {
	sent      *telemetry.Counter
	decZero   *telemetry.Counter
	decInterp *telemetry.Counter
	decDCG    *telemetry.Counter
	decBatch  *telemetry.Counter
}

// bindFormatMetrics resolves the per-format counters for name.
func (c *Context) bindFormatMetrics(name string) formatMetrics {
	if !c.met.enabled {
		return formatMetrics{}
	}
	return formatMetrics{
		sent:      c.met.recordsSent.With(name),
		decZero:   c.met.decodes.With(name, pathZeroCopy),
		decInterp: c.met.decodes.With(name, pathInterp),
		decDCG:    c.met.decodes.With(name, pathDCG),
		decBatch:  c.met.decodes.With(name, pathDCGBatch),
	}
}
