package relay

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"repro/internal/abi"
	"repro/internal/bufpool"
	"repro/internal/flightrec"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxProducerResyncs bounds how many corrupt frames the relay will skip
// for one producer before concluding the connection is hopeless, and
// resyncScanLimit bounds how far it scans for the next frame boundary
// after each one.
const (
	maxProducerResyncs = 64
	resyncScanLimit    = 1 << 20
)

// crcTable is the transport's checksum polynomial (CRC32-C); the relay
// computes its own sums only for batch frames it originates.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// binding is what an ingest knows about one of its producer's format
// IDs, all of it resolved once at meta time: the relay ID, the trace
// field's geometry (per-frame trace extraction is two loads and a bounds
// check) and the accounting bucket.
type binding struct {
	relayID  uint32
	size     int
	traceOff int // -1: format carries no trace field
	order    abi.Endian
	name     string
	fstats   *formatStats
}

// traced returns how many records in body carry live trace context — the
// count rides on the queued frame so drop-oldest evictions can account
// for every traced record they lose.
func (b *binding) traced(tr *tracectx.Tracer, body []byte) int {
	if tr == nil || b.traceOff < 0 {
		return 0
	}
	n := 0
	for off := 0; off+b.size <= len(body); off += b.size {
		if tc, ok := wire.GetTraceContext(body[off:off+b.size], b.order, b.traceOff); ok && tc.TraceID != 0 {
			n++
		}
	}
	return n
}

// noteSpans records one relay-phase span per traced record in body — a
// single record or a whole batch, the stride is the same.
func (b *binding) noteSpans(tr *tracectx.Tracer, body []byte, arrival time.Time) {
	if tr == nil || b.traceOff < 0 {
		return
	}
	for off := 0; off+b.size <= len(body); off += b.size {
		if tc, ok := wire.GetTraceContext(body[off:off+b.size], b.order, b.traceOff); ok && tc.TraceID != 0 {
			tr.Record(tracectx.Span{Trace: tc.TraceID, ID: tr.NewID(), Parent: tc.ParentSpan,
				Name: tracectx.PhaseRelay, Start: arrival, Dur: time.Since(arrival), Format: b.name})
		}
	}
}

// ingest reads one producer's frames, renumbers format IDs into the relay
// space and hands every intact frame to the fan-out: verbatim, or through
// the rebatcher.
//
// Corrupt frames do not immediately kill the producer: a frame that fails
// its checksum (or decodes to garbage) is skipped, and a framing-level
// error triggers a bounded scan for the next frame boundary (Resync).
// Only unrecoverable conditions — a gone peer, a protocol violation, or
// too many corrupt frames — end the ingest, and every such end records
// its cause in Stats.
type ingest struct {
	s *Server
	u *Uplink // set when the "producer" is an upstream relay (RunUplink)

	br    *bufio.Reader
	fr    *transport.FrameReader
	local transport.FormatTable[binding] // producer's ID -> relay binding

	// deadline is the stream, when it has read deadlines and the relay a
	// producer timeout: re-armed before every frame.
	deadline    interface{ SetReadDeadline(time.Time) error }
	readTimeout time.Duration

	resyncs int // corrupt frames skipped so far, of maxProducerResyncs
	rb      rebatcher
}

// newIngest prepares an ingest of r for s, capturing the relay's
// configuration once (Set* is only safe before Serve): no Server.mu per
// frame.
func (s *Server) newIngest(r io.Reader, u *Uplink) *ingest {
	in := &ingest{s: s, u: u, br: bufio.NewReader(r)}
	in.fr = transport.NewFrameReader(in.br)
	in.rb.s = s
	s.mu.Lock()
	in.rb.max, in.rb.sums = s.rebatchMax, s.sums
	in.readTimeout = s.producerTimeout
	s.mu.Unlock()
	if in.readTimeout > 0 {
		in.deadline, _ = r.(interface{ SetReadDeadline(time.Time) error })
	}
	return in
}

// serveProducer runs an ingest over one producer connection (u nil) or
// one uplink connection, to its end.
func (s *Server) serveProducer(conn net.Conn, u *Uplink) {
	defer conn.Close()
	role := "producer"
	if u != nil {
		role = "uplink"
	}
	s.flight.Load().Emit(flightrec.KindConnOpen, role, 0, 0, 0)
	defer s.flight.Load().Emit(flightrec.KindConnClose, role, 0, 0, 0)
	s.newIngest(conn, u).run()
}

// run ingests frames until the stream ends or the producer is dropped.
func (in *ingest) run() {
	defer in.fr.Release()
	// Whatever is pending when the producer goes away — cleanly or not —
	// was received intact and still belongs to the consumers.
	defer in.rb.flush()
	for {
		// Coalescing must never hold records while the producer is
		// silent: flush the moment no further input is already buffered.
		if in.br.Buffered() == 0 {
			in.rb.flush()
		}
		if in.deadline != nil {
			in.deadline.SetReadDeadline(time.Now().Add(in.readTimeout))
		}
		f, err := in.fr.Next()
		switch {
		case err == nil:
		case err == io.EOF:
			return // clean disconnect
		case errors.Is(err, transport.ErrCorruptFrame):
			// Framing lost: skip garbage until the next frame boundary.
			if !in.skip(err) {
				return
			}
			if _, rerr := transport.Resync(in.br, resyncScanLimit); rerr != nil {
				if rerr != io.EOF {
					in.s.noteBadProducer(fmt.Errorf("relay: resync failed: %w", rerr))
				}
				return
			}
			continue
		default:
			// Peer gone mid-frame (reset, timeout, truncation).
			in.s.noteBadProducer(err)
			return
		}
		if !in.onFrame(f) {
			return
		}
	}
}

// skip records one survivable corrupt frame; it reports false when the
// producer has exhausted its corruption budget and is dropped.
func (in *ingest) skip(cause error) bool {
	in.resyncs++
	in.s.stats.resyncs.Add(1)
	in.s.flight.Load().Emit(flightrec.KindResync, "", 0, 0, 0)
	if in.resyncs > maxProducerResyncs {
		in.s.noteBadProducer(fmt.Errorf("relay: producer exceeded %d corrupt frames: %w", maxProducerResyncs, cause))
		return false
	}
	return true
}

// onFrame handles one well-framed frame; false ends the ingest.
func (in *ingest) onFrame(f transport.Frame) bool {
	tr := in.s.tracer.Load()
	var arrival time.Time
	if tr != nil {
		arrival = time.Now()
	}
	body, err := f.Body()
	if err != nil {
		// Checksum mismatch: the frame was consumed whole, so the stream
		// is still aligned — just drop the frame.
		in.s.stats.checksumFailures.Add(1)
		in.s.flight.Load().Emit(flightrec.KindChecksumFailure, "relay ingest", 0, 0, 0)
		if tr != nil {
			// A discarded frame of a trace-carrying format loses its relay
			// span (and likely the whole message); account for it rather
			// than letting the trace thin out silently.  A discarded batch
			// loses every record it carried — the count is estimated from
			// the advertised payload size, since the body cannot be
			// trusted.
			if b := in.local.Lookup(f.FormatID); b != nil && b.traceOff >= 0 {
				switch f.BaseKind() {
				case transport.FrameData:
					tr.NoteLost()
				case transport.FrameBatch:
					tr.NoteLostN(max((len(f.Payload)-sumPrefix)/b.size, 1))
				}
			}
		}
		return in.skip(err)
	}
	switch f.BaseKind() {
	case transport.FrameMeta:
		return in.onMeta(f.FormatID, body)
	case transport.FrameData, transport.FrameBatch:
		return in.onRecords(f, body, tr, arrival)
	case transport.FrameSub:
		// On an uplink this is the upstream's identity reply (the other
		// half of the mesh handshake); on a plain producer link FrameSub
		// is a consumer-to-relay control frame and just as much a
		// protocol violation as any other kind.
		if in.u == nil {
			in.s.noteBadProducer(fmt.Errorf("relay: unexpected subscription frame from producer"))
			return false
		}
		sub, err := transport.DecodeSubscription(body)
		if err != nil {
			return in.skip(err)
		}
		in.u.setPeer(sub.NodeID, sub.MeshAddr)
		return true
	default:
		// Format-server references would need a resolver here; producers
		// must use in-band meta with a relay.
		in.s.noteBadProducer(fmt.Errorf("relay: unexpected frame kind %d from producer", f.Kind))
		return false
	}
}

// onMeta binds the producer's format ID to the format's relay ID,
// announcing the format to the consumers if the relay had not seen it.
func (in *ingest) onMeta(id uint32, body []byte) bool {
	format, _, err := wire.DecodeMeta(body)
	if err != nil {
		return in.skip(err)
	}
	// Keep consumer frame order identical to arrival order: the pending
	// batch was received before this meta frame.
	in.rb.flush()
	relayID, added, fs, err := in.s.registerFormat(format)
	if err != nil {
		in.s.noteBadProducer(err)
		return false
	}
	in.local.Bind(id, &binding{
		relayID:  relayID,
		size:     format.Size,
		traceOff: wire.TraceFieldOffset(format),
		order:    format.Order,
		name:     format.Name,
		fstats:   fs,
	})
	if added {
		in.s.broadcastMeta(relayID)
	}
	return true
}

// onRecords forwards one data or batch frame's records.
func (in *ingest) onRecords(f transport.Frame, body []byte, tr *tracectx.Tracer, arrival time.Time) bool {
	b := in.local.Lookup(f.FormatID)
	if b == nil {
		in.s.noteBadProducer(fmt.Errorf("relay: data frame for unknown format ID %d (data before meta)", f.FormatID))
		return false
	}
	batch := f.BaseKind() == transport.FrameBatch
	if (!batch && len(body) != b.size) || (batch && (len(body) == 0 || len(body)%b.size != 0)) {
		// A record run that is not a positive multiple of its format's
		// size is corrupt even if its checksum matches (or it carries
		// none).
		if tr != nil && b.traceOff >= 0 {
			tr.NoteLostN(max(len(body)/b.size, 1))
		}
		return in.skip(fmt.Errorf("relay: %d-byte payload, format is %d bytes/record", len(body), b.size))
	}
	traced := b.traced(tr, body)
	if in.rb.max > 0 {
		// Coalesce: verified bodies (singles and batches alike) accumulate
		// and leave as relay-originated batch frames.
		in.rb.add(b, body, traced)
	} else {
		// Forward verbatim on a pooled, refcounted payload (the read
		// buffer is reused next frame, so consumers need an owned copy —
		// one copy shared by all).  The payload keeps any checksum prefix:
		// the checksum covers the body only, so renumbering the header
		// keeps it valid end-to-end.
		cp := bufpool.Get(len(f.Payload))
		copy(cp, f.Payload)
		in.s.broadcast(transport.Frame{Kind: f.Kind, FormatID: b.relayID, Payload: cp},
			&sharedPayload{buf: cp}, len(body)/b.size, traced, b.fstats)
	}
	b.noteSpans(tr, body, arrival)
	return true
}

// rebatcher coalesces one ingest's consecutive same-format records into
// relay-originated batch frames (SetRebatching states the flush policy):
// verified record bodies accumulate in buf — pooled, with sumPrefix bytes
// of checksum headroom — and leave as one frame.  max ≤ 0 is off.
type rebatcher struct {
	s    *Server
	max  int  // payload bytes per relay-built frame
	sums bool // checksum relay-built frames

	buf             []byte
	id              uint32
	stats           *formatStats
	records, traced int
}

const sumPrefix = 4

// add appends body — one or more whole records of b's format — flushing
// first on a format switch or when body would not fit, and after on size.
func (rb *rebatcher) add(b *binding, body []byte, traced int) {
	if rb.records > 0 && (b.relayID != rb.id || len(rb.buf)-sumPrefix+len(body) > rb.max) {
		rb.flush()
	}
	if rb.buf == nil {
		// A producer batch may itself exceed max; size for it so append
		// never reallocates away from the pooled buffer.
		rb.buf = bufpool.Get(sumPrefix + max(rb.max, len(body)))[:sumPrefix]
	}
	if rb.records == 0 {
		rb.id, rb.stats = b.relayID, b.fstats
	}
	rb.buf = append(rb.buf, body...)
	rb.records += len(body) / b.size
	rb.traced += traced
	if len(rb.buf)-sumPrefix >= rb.max {
		rb.flush()
	}
}

// flush broadcasts whatever is pending as one frame: FrameBatch for a run
// of two or more records, a plain data frame for one.
func (rb *rebatcher) flush() {
	if rb.records == 0 {
		return
	}
	kind := byte(transport.FrameBatch)
	if rb.records == 1 {
		kind = transport.FrameData
	}
	payload := rb.buf[sumPrefix:]
	if rb.sums {
		kind |= transport.FrameFlagSum
		wire.PutBeUint32(rb.buf[:sumPrefix], crc32.Checksum(rb.buf[sumPrefix:], crcTable))
		payload = rb.buf
	}
	rb.s.broadcast(transport.Frame{Kind: kind, FormatID: rb.id, Payload: payload},
		&sharedPayload{buf: rb.buf}, rb.records, rb.traced, rb.stats)
	rb.buf, rb.stats, rb.records, rb.traced = nil, nil, 0, 0
}

func (s *Server) noteBadProducer(cause error) {
	s.stats.badProducers.Add(1)
	s.stats.errMu.Lock()
	s.stats.lastProducerError = cause.Error()
	s.stats.errMu.Unlock()
	s.flight.Load().Emit(flightrec.KindProducerDropped, cause.Error(), 0, 0, 0)
}
