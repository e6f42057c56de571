package transport

import (
	"errors"
	"net"
	"os"

	"repro/internal/telemetry"
)

// Metrics is the transport layer's wire-path instrumentation.  All
// fields are nil-safe telemetry handles, so the zero value is a valid
// no-op set; Writers and Readers leave their metric pointer nil until
// SetMetrics, and the disabled-telemetry hot path costs one nil-check
// branch per frame.
type Metrics struct {
	FramesRead    *telemetry.Counter
	FramesWritten *telemetry.Counter
	BytesRead     *telemetry.Counter // payload + header bytes consumed
	BytesWritten  *telemetry.Counter // payload + header bytes emitted
	MetaRead      *telemetry.Counter // meta + meta-ref frames consumed
	MetaWritten   *telemetry.Counter // meta + meta-ref frames emitted

	// Batch frame accounting: frames, the records they carried, and the
	// record payload bytes (headers excluded).  A batch frame also counts
	// once in FramesRead/FramesWritten; these counters expose how much of
	// the record volume rode in batches.
	BatchFramesRead     *telemetry.Counter
	BatchFramesWritten  *telemetry.Counter
	BatchRecordsRead    *telemetry.Counter
	BatchRecordsWritten *telemetry.Counter
	BatchBytesRead      *telemetry.Counter
	BatchBytesWritten   *telemetry.Counter

	// ChecksumFailures counts frames whose CRC32-C prefix did not match
	// their body; DeadlineTimeouts counts reads/writes that hit the
	// configured deadline (a dead or stalled peer, not corruption).
	ChecksumFailures *telemetry.Counter
	DeadlineTimeouts *telemetry.Counter

	// Flight, when non-nil, receives discrete wire faults for the
	// flight journal.  Transport cannot import the recorder (it sits
	// below it in the import graph), so the sink is the narrow
	// interface; *flightrec.Recorder satisfies it, nil receiver
	// included.
	Flight FlightSink
}

// FlightSink receives the transport layer's journal-worthy events.
// Implementations must tolerate concurrent calls; all calls happen on
// error paths or once per format, never per-frame.
type FlightSink interface {
	ChecksumFailure(subject string)
	DeadlineTimeout(subject string)
	FormatLearned(subject string)
}

// nopMetrics is the shared disabled-telemetry instance: all handles nil,
// every method call a no-op.
var nopMetrics = &Metrics{}

// NewMetrics builds (or re-binds, the registry deduplicates by name) the
// transport metric set on r.  A nil registry yields the no-op set.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nopMetrics
	}
	return &Metrics{
		FramesRead:          r.Counter("pbio_transport_frames_read_total", "Frames consumed from streams (data + meta)."),
		FramesWritten:       r.Counter("pbio_transport_frames_written_total", "Frames emitted to streams (data + meta)."),
		BytesRead:           r.Counter("pbio_transport_bytes_read_total", "Bytes consumed from streams, headers included."),
		BytesWritten:        r.Counter("pbio_transport_bytes_written_total", "Bytes emitted to streams, headers included."),
		MetaRead:            r.Counter("pbio_transport_meta_frames_read_total", "Meta and meta-reference frames consumed."),
		MetaWritten:         r.Counter("pbio_transport_meta_frames_written_total", "Meta and meta-reference frames emitted."),
		BatchFramesRead:     r.Counter("pbio_transport_batch_frames_read_total", "Batch frames consumed from streams."),
		BatchFramesWritten:  r.Counter("pbio_transport_batch_frames_written_total", "Batch frames emitted to streams."),
		BatchRecordsRead:    r.Counter("pbio_transport_batched_records_read_total", "Records delivered from batch frames."),
		BatchRecordsWritten: r.Counter("pbio_transport_batched_records_written_total", "Records coalesced into batch frames."),
		BatchBytesRead:      r.Counter("pbio_transport_batch_bytes_read_total", "Record bytes consumed via batch frames, headers excluded."),
		BatchBytesWritten:   r.Counter("pbio_transport_batch_bytes_written_total", "Record bytes emitted via batch frames, headers excluded."),
		ChecksumFailures:    r.Counter("pbio_transport_checksum_failures_total", "Frames whose CRC32-C did not match the body."),
		DeadlineTimeouts:    r.Counter("pbio_transport_deadline_timeouts_total", "Reads or writes that hit the configured deadline."),
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// noteIOError classifies an I/O error into the timeout counter and the
// flight journal.  It is nil-receiver-safe and called on error paths only,
// never on the hot path.
func (m *Metrics) noteIOError(err error, what string) {
	if m == nil || err == nil {
		return
	}
	if isTimeout(err) {
		m.DeadlineTimeouts.Inc()
		if m.Flight != nil {
			m.Flight.DeadlineTimeout(what)
		}
	}
}

// noteChecksumFailure accounts a frame discarded for a CRC mismatch.
// Nil-receiver-safe; error path only.
func (m *Metrics) noteChecksumFailure(what string) {
	if m == nil {
		return
	}
	m.ChecksumFailures.Inc()
	if m.Flight != nil {
		m.Flight.ChecksumFailure(what)
	}
}
