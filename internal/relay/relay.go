// Package relay implements a PBIO stream broker in the spirit of the
// group's DataExchange system (the paper's reference [6]): producers
// publish record streams, consumers subscribe, and the relay fans every
// record out to its subscribers.
//
// The relay is where NDR's design pays off architecturally: because
// records travel in the sender's native layout with self-contained
// meta-information, the relay forwards *frames* — it never decodes,
// converts, or re-encodes a record, regardless of how many architectures
// are publishing.  A fixed-wire-format broker would at minimum re-frame,
// and an XML or object broker would re-serialize.
//
// Beyond the flat fan-out of the paper's era, relays compose into a
// *mesh*: a relay attaches below another relay with RunUplink, ingesting
// the upstream's frames exactly as if it were a producer, so producers →
// root → leaf relays → consumers forms a fan-out tree in which each hop
// pays one inbound copy of the stream no matter how many subscribers sit
// below it.  Consumers (and downstream relays) subscribe by format name
// (transport.FrameSub); a hop only receives the formats someone below it
// wants.  Every consumer gets a bounded queue with a configurable
// overflow policy (SetQueue), so a slow subscriber costs at most its
// queue — never the stream.
//
// What the relay must manage is format identity: producers assign their
// own small format IDs per connection, so the relay renumbers formats
// into a shared space (deduplicating identical layouts via the registry)
// and replays the relevant meta frames to late-joining consumers before
// their first data frame.
package relay

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abi"
	"repro/internal/bufpool"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Server is a relay instance.
type Server struct {
	mu        sync.Mutex
	formats   *wire.Registry      // relay-wide format space
	metaBytes map[uint32][]byte   // relay ID -> canonical meta frame payload
	metaOrder []uint32            // relay IDs in first-seen order (for replay)
	names     map[uint32]string   // relay ID -> format name (subscription routing)
	byName    map[string][]uint32 // format name -> relay IDs carrying it
	consumers map[*consumer]bool
	uplinks   map[*Uplink]bool
	closed    bool

	// queueCap and queuePolicy shape the per-consumer queue every
	// registration creates (SetQueue).
	queueCap    int
	queuePolicy QueuePolicy

	// producerTimeout, when nonzero, bounds each producer frame read; an
	// idle-past-the-bound producer is treated as gone.  consumerTimeout
	// bounds each consumer frame write, so a peer that stops draining its
	// socket cannot pin a relay goroutine.
	producerTimeout time.Duration
	consumerTimeout time.Duration

	// sums, when true, checksums the frames the relay itself originates:
	// meta (broadcast and late-joiner replay) and re-batched data.  Data
	// frames it does not re-batch are forwarded verbatim, so their
	// integrity protection is whatever the producer chose; relay-built
	// frames would otherwise be the unprotected links in an end-to-end
	// checksummed path.
	sums bool

	// rebatchMax, when positive, makes each producer goroutine coalesce
	// consecutive same-format data records into relay-originated batch
	// frames of up to this many payload bytes (see SetRebatching).
	rebatchMax int

	stats statCounters

	// Mesh identity and observability (see mesh.go): nodeID / meshAddr
	// are this relay's stable hop identity (SetNodeInfo), stallWindow
	// the stall-detector bound (SetStallWindow).  fstats is per-format
	// accounting keyed by format name — bounded at maxFormatStats, with
	// fstatsOverflow catching the excess — and fvecs the labeled
	// telemetry families the per-format atomics export through (their
	// nil-safe With makes registration a no-op until SetTelemetry).
	nodeID         string
	meshAddr       string
	stallWindow    time.Duration
	runtimeProbe   func() MeshRuntimeInfo // SetRuntimeProbe; nil = no runtime section
	fstats         map[string]*formatStats
	fstatsOverflow *formatStats
	fvecs          struct {
		frames         *telemetry.CounterFuncVec
		records        *telemetry.CounterFuncVec
		bytes          *telemetry.CounterFuncVec
		droppedFrames  *telemetry.CounterFuncVec
		droppedRecords *telemetry.CounterFuncVec
		queued         *telemetry.GaugeFuncVec
	}

	// scrapeMaxDepth / scrapeStalled carry the extra results of the
	// single queue walk the depth-sum gauge runs per scrape to the two
	// gauges exported after it (see SetTelemetry).
	scrapeMaxDepth atomic.Int64
	scrapeStalled  atomic.Int64

	// trace, when set (SetTelemetry), receives relay trace events:
	// resyncs, dropped producers and consumers.  Atomic so telemetry can
	// be attached without synchronizing with serving goroutines.
	trace atomic.Pointer[telemetry.TraceRing]

	// tracer, when set (SetTracing), records one relay-phase span per
	// forwarded frame that carries wire trace context.  The relay never
	// rewrites the frame — it reads the trailing trace field out of the
	// record bytes it is forwarding verbatim.
	tracer atomic.Pointer[tracectx.Tracer]

	// flight, when set (SetFlight), journals the relay's discrete
	// events: consumer join/leave, policy drops, queue evictions, stall
	// transitions, uplink attachment.  Atomic like trace/tracer; a nil
	// recorder is a valid no-op sink.
	flight atomic.Pointer[flightrec.Recorder]
}

// SetFlight attaches a flight recorder.  All emission sites are off the
// broadcast hot path (connection lifecycle, eviction callbacks, scrape
// walks), so recording costs nothing per forwarded frame.
func (s *Server) SetFlight(r *flightrec.Recorder) {
	if r != nil {
		s.flight.Store(r)
	}
}

// emitTrace sends a relay trace event if telemetry is attached.
func (s *Server) emitTrace(name, detail string) {
	s.trace.Load().Emit("relay", name, detail)
}

// SetTracing makes the relay participate in cross-hop traces: for every
// forwarded data frame whose format carries the wire trace field, the
// relay records a relay-phase span (frame arrival → broadcast enqueue)
// under the message's trace ID.  Traced frames the relay has to discard
// (corruption, size mismatch) — and traced records evicted from a
// consumer queue by the drop-oldest policy — are counted on the tracer
// as lost, never silently dropped.  Nil tracers are ignored.
func (s *Server) SetTracing(t *tracectx.Tracer) {
	if t != nil {
		s.tracer.Store(t)
	}
}

// Stats is a snapshot of the relay's error-accounting and throughput
// counters.
type Stats struct {
	// Frames is the number of frames broadcast; ForwardedBytes the total
	// payload bytes forwarded (payload size × subscribed consumers at
	// broadcast time).
	Frames         int64
	ForwardedBytes int64

	// BadProducers counts producers dropped for protocol violations or
	// unrecoverable corruption; LastProducerError records the most
	// recent cause.
	BadProducers      int64
	LastProducerError string

	// DroppedConsumers counts consumers the relay itself evicted: queue
	// overflow under PolicyDisconnect.  Disconnects counts consumers
	// that left for any other reason the relay observed — peer gone,
	// write failure, write timeout — including mid-flush departures.
	// Together they account for every consumer departure except server
	// shutdown, each exactly once.
	DroppedConsumers int64
	Disconnects      int64

	// QueueDroppedFrames / QueueDroppedRecords count frames (and the
	// records they carried) evicted from consumer queues by
	// PolicyDropOldest.  Meta frames count as zero records.
	QueueDroppedFrames  int64
	QueueDroppedRecords int64

	// SubscriptionUpdates counts subscription frames applied to
	// consumers (including downstream relays' want-list updates).
	SubscriptionUpdates int64

	// Resyncs counts corrupt producer frames survived without dropping
	// the producer: the frame was skipped and the stream re-aligned on
	// the next frame boundary.
	Resyncs int64

	// ChecksumFailures counts producer frames whose CRC32-C prefix did
	// not match the body (a subset of the corrupt frames Resyncs
	// survives: checksummed frames are consumed whole, so they are
	// skipped without a boundary scan).
	ChecksumFailures int64

	// MetaReplays counts meta frames replayed to late-joining consumers.
	MetaReplays int64
}

// statCounters is the live form of Stats: lock-free atomics on the
// broadcast hot path, so Stats readers (the -stats ticker, the /metrics
// scrape) never contend with forwarding.  Only the error string needs a
// lock, and it is written on producer-drop paths only.
type statCounters struct {
	frames           atomic.Int64
	forwardedBytes   atomic.Int64
	badProducers     atomic.Int64
	droppedConsumers atomic.Int64
	disconnects      atomic.Int64
	droppedFrames    atomic.Int64
	droppedRecords   atomic.Int64
	subUpdates       atomic.Int64
	resyncs          atomic.Int64
	checksumFailures atomic.Int64
	metaReplays      atomic.Int64

	errMu             sync.Mutex
	lastProducerError string
}

// sharedPayload is a pooled broadcast payload shared by every consumer
// queue a frame was enqueued to.  The broadcaster sets the reference
// count before the frame is visible to anyone; each consumer releases
// after writing (or when draining a closed queue), and the last
// reference returns the buffer to the pool.
type sharedPayload struct {
	refs atomic.Int32
	buf  []byte
}

// release drops one reference; the final release recycles the buffer.
// Nil receivers (un-pooled payloads, e.g. meta frames) are no-ops.
func (p *sharedPayload) release() {
	if p != nil && p.refs.Add(-1) == 0 {
		bufpool.Put(p.buf)
	}
}

// outFrame is one queued frame plus the pooled payload it rides on
// (owner nil when the payload is not pooled), with the record counts the
// queue needs for exact drop accounting: recs is how many records the
// frame carries (0 for meta), traced how many of them carry live wire
// trace context.
type outFrame struct {
	f      transport.Frame
	owner  *sharedPayload
	recs   int
	traced int

	// fstats is the frame's format accounting bucket, resolved once at
	// meta-registration time (nil for meta and control frames).  Riding
	// the frame keeps queue-side accounting lock-ordering-free: the
	// queue updates it under its own mutex without ever needing
	// Server.mu to resolve a format name.
	fstats *formatStats
}

// consumer is one subscriber connection.
type consumer struct {
	q    *frameQueue
	conn net.Conn

	// Subscription state, guarded by Server.mu.  all is true until the
	// consumer sends an explicit want-list (plain consumers never do);
	// want is the resolved relay-ID set for a non-all subscription.
	sub  transport.Subscription
	all  bool
	want map[uint32]bool

	// Downstream identity, guarded by Server.mu: set when the consumer's
	// subscription announced it as a relay (mesh handshake).
	// identitySent records that this relay's own identity reply has been
	// queued, so re-subscriptions do not repeat it.
	peerNodeID   string
	peerMeshAddr string
	identitySent bool

	// counted guards the departure counters: exactly one of
	// DroppedConsumers / Disconnects per consumer, no matter how the
	// drop path races the pump's own exit.
	counted atomic.Bool

	// stalled is the stall detector's edge memory: set while the
	// consumer is flagged, CASed by racing scrape walks so each
	// onset/clear transition reaches the flight journal exactly once.
	stalled atomic.Bool
}

// wantsLocked reports whether the consumer's subscription covers a relay
// format ID.  Callers hold Server.mu.
func (c *consumer) wantsLocked(id uint32) bool { return c.all || c.want[id] }

// consumerQueue is the default per-consumer queue bound (SetQueue).
const consumerQueue = 256

// crcTable is the transport's checksum polynomial (CRC32-C); the relay
// computes its own sums only for batch frames it originates.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxProducerResyncs bounds how many corrupt frames the relay will skip
// for one producer before concluding the connection is hopeless, and
// resyncScanLimit bounds how far it scans for the next frame boundary
// after each one.
const (
	maxProducerResyncs = 64
	resyncScanLimit    = 1 << 20
)

// NewServer returns an empty relay.
func NewServer() *Server {
	return &Server{
		formats:     wire.NewRegistry(),
		metaBytes:   make(map[uint32][]byte),
		names:       make(map[uint32]string),
		byName:      make(map[string][]uint32),
		consumers:   make(map[*consumer]bool),
		uplinks:     make(map[*Uplink]bool),
		fstats:      make(map[string]*formatStats),
		queueCap:    consumerQueue,
		queuePolicy: PolicyDisconnect,
		stallWindow: defaultStallWindow,
	}
}

// SetTimeouts configures the per-frame producer read bound and consumer
// write bound.  Zero (the default) disables the respective deadline.
func (s *Server) SetTimeouts(producerRead, consumerWrite time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.producerTimeout = producerRead
	s.consumerTimeout = consumerWrite
}

// SetQueue configures the per-consumer queue: capacity in frames and the
// policy applied when a queue is full (block, drop-oldest, disconnect).
// Defaults: 256 frames, PolicyDisconnect.  Like the other knobs it is
// meant to be set before serving; consumers registered earlier keep the
// queue they were created with.
func (s *Server) SetQueue(capacity int, policy QueuePolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if capacity > 0 {
		s.queueCap = capacity
	}
	s.queuePolicy = policy
}

// SetChecksums makes the relay checksum the frames it originates (meta,
// and batch frames built by re-batching).  Readers accept checksummed
// and plain frames transparently, so this is safe to enable regardless
// of what producers do.
func (s *Server) SetChecksums(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sums = on
}

// SetRebatching makes each producer goroutine coalesce consecutive
// same-format data records — singles and incoming batches alike — into
// relay-originated batch frames of up to maxBytes payload.  A pending
// batch is flushed when the producer's socket has no more buffered
// input (so coalescing adds no latency: records are held only while
// more are already waiting), when the format changes, when a non-data
// frame arrives, and when maxBytes is reached.  Re-batched frames are
// checksummed according to SetChecksums; the producer's own checksums
// are verified at ingest and stripped.  maxBytes ≤ 0 disables (the
// default), restoring verbatim forwarding.
func (s *Server) SetRebatching(maxBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebatchMax = maxBytes
}

// metaFrame builds the meta frame for a relay format ID, checksummed when
// the relay is configured to.  Callers must hold s.mu.
func (s *Server) metaFrame(relayID uint32) transport.Frame {
	if s.sums {
		return transport.Frame{
			Kind:     transport.FrameMeta | transport.FrameFlagSum,
			FormatID: relayID,
			Payload:  transport.SumPayload(s.metaBytes[relayID]),
		}
	}
	return transport.Frame{
		Kind: transport.FrameMeta, FormatID: relayID, Payload: s.metaBytes[relayID],
	}
}

// ServeProducers accepts producer connections until the listener closes.
func (s *Server) ServeProducers(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveProducer(conn)
	}
}

// AddProducerConn ingests frames arriving on conn as one producer, in a
// background goroutine — the programmatic equivalent of a ServeProducers
// accept, for in-process harnesses (net.Pipe meshes) and tests.
func (s *Server) AddProducerConn(conn net.Conn) {
	go s.serveProducer(conn)
}

// ServeConsumers accepts consumer connections until the listener closes.
// Each consumer is registered for broadcasts synchronously, before the
// next Accept: once the relay has accepted a consumer's connection, no
// subsequently broadcast frame can be missed.  (Frames broadcast while
// the connection is still in the listener backlog are still lost — a
// consumer that must not miss data has to connect before the producer
// starts, which this ordering makes sufficient in practice.)
func (s *Server) ServeConsumers(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.AddConsumerConn(conn)
	}
}

// AddConsumerConn registers conn as a consumer — synchronously, so no
// frame broadcast after it returns can be missed — and starts its pump
// and control-frame reader.  It reports false when the relay is closed
// (the connection is closed in that case).  The programmatic equivalent
// of a ServeConsumers accept, for in-process harnesses and uplinks.
func (s *Server) AddConsumerConn(conn net.Conn) bool {
	c, replay, wtimeout, ok := s.registerConsumer(conn)
	if !ok {
		return false
	}
	go s.pumpConsumer(c, replay, wtimeout)
	go s.readConsumerControl(c)
	// A new consumer defaults to an all-subscription, which can widen
	// this hop's downstream union.
	s.notifyUplinks()
	return true
}

// serveProducer reads frames from one producer, renumbers format IDs into
// the relay space, and broadcasts.
//
// Corrupt frames do not immediately kill the producer: a frame that fails
// its checksum (or decodes to garbage) is skipped, and a framing-level
// error triggers a bounded scan for the next frame boundary (Resync).
// Only unrecoverable conditions — a gone peer, a protocol violation, or
// too many corrupt frames — drop the connection, and every drop records
// its cause in Stats.
func (s *Server) serveProducer(conn net.Conn) {
	s.serveProducerFrom(conn, nil)
}

// serveProducerFrom is serveProducer with the link's uplink, when the
// "producer" is really an upstream relay (RunUplink): the one behavioral
// difference is that subscription frames on the inbound direction are
// the upstream's identity reply rather than a protocol violation.
func (s *Server) serveProducerFrom(conn net.Conn, u *Uplink) {
	defer conn.Close()
	role := "producer"
	if u != nil {
		role = "uplink"
	}
	s.flight.Load().Emit(flightrec.KindConnOpen, role, 0, 0, 0)
	defer s.flight.Load().Emit(flightrec.KindConnClose, role, 0, 0, 0)
	type binding struct {
		relayID uint32
		size    int
		// Trace-field geometry of the format, resolved once at meta time
		// so per-frame trace extraction is two loads and a bounds check.
		traceOff int // -1: format carries no trace field
		order    abi.Endian
		name     string
		// Per-format accounting bucket, resolved once here so the data
		// path never looks it up again.
		fstats *formatStats
	}
	var local transport.FormatTable[binding] // producer's ID -> relay binding
	br := bufio.NewReader(conn)
	var buf []byte
	resyncs := 0

	// Read once (Set* is only safe before Serve): no Server.mu per frame.
	s.mu.Lock()
	rebatchMax := s.rebatchMax
	sums := s.sums
	readTimeout := s.producerTimeout
	s.mu.Unlock()

	// skip records one survivable corrupt frame; the second return
	// reports whether the producer has exhausted its corruption budget.
	skip := func(cause error) bool {
		resyncs++
		s.noteResync()
		if resyncs > maxProducerResyncs {
			s.noteBadProducer(fmt.Errorf("relay: producer exceeded %d corrupt frames: %w", maxProducerResyncs, cause))
			return false
		}
		return true
	}

	// countTraced returns how many records in body carry live trace
	// context — the count rides on the queued frame so drop-oldest
	// evictions can account for every traced record they lose.
	countTraced := func(tr *tracectx.Tracer, b *binding, body []byte) int {
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

	// noteSpans records one relay-phase span per traced record in body —
	// a single record or a whole batch, the stride is the same.
	noteSpans := func(tr *tracectx.Tracer, b *binding, body []byte, arrival time.Time) {
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

	// forward broadcasts verified record bytes verbatim on a pooled,
	// refcounted payload (the producer's read buffer is reused next
	// frame, so consumers need an owned copy — one copy shared by all).
	forward := func(kind byte, relayID uint32, payload []byte, recs, traced int, fs *formatStats) {
		cp := bufpool.Get(len(payload))
		copy(cp, payload)
		s.broadcast(transport.Frame{Kind: kind, FormatID: relayID, Payload: cp},
			&sharedPayload{buf: cp}, recs, traced, fs)
	}

	// Re-batching state (SetRebatching): verified record bodies of one
	// format accumulate in rb — a pooled buffer with 4 bytes of checksum
	// headroom — and leave as one relay-originated batch frame.  Flush
	// policy: see SetRebatching.
	const sumPrefix = 4
	var (
		rb        []byte
		rbID      uint32
		rbStats   *formatStats
		rbRecords int
		rbTraced  int
	)
	flushBatch := func() {
		if rbRecords == 0 {
			return
		}
		kind := byte(transport.FrameBatch)
		if rbRecords == 1 {
			kind = transport.FrameData
		}
		payload := rb[sumPrefix:]
		if sums {
			kind |= transport.FrameFlagSum
			wire.PutBeUint32(rb[:sumPrefix], crc32.Checksum(rb[sumPrefix:], crcTable))
			payload = rb
		}
		s.broadcast(transport.Frame{Kind: kind, FormatID: rbID, Payload: payload},
			&sharedPayload{buf: rb}, rbRecords, rbTraced, rbStats)
		rb, rbStats, rbRecords, rbTraced = nil, nil, 0, 0
	}
	// Whatever is pending when the producer goes away — cleanly or not —
	// was received intact and still belongs to the consumers.
	defer flushBatch()

	appendRecords := func(b *binding, body []byte, traced int) {
		if rbRecords > 0 && (b.relayID != rbID || len(rb)-sumPrefix+len(body) > rebatchMax) {
			flushBatch()
		}
		if rb == nil {
			// A producer batch may itself exceed rebatchMax; size for it so
			// append never reallocates away from the pooled buffer.
			rb = bufpool.Get(sumPrefix + max(rebatchMax, len(body)))[:sumPrefix]
		}
		if rbRecords == 0 {
			rbID, rbStats = b.relayID, b.fstats
		}
		rb = append(rb, body...)
		rbRecords += len(body) / b.size
		rbTraced += traced
		if len(rb)-sumPrefix >= rebatchMax {
			flushBatch()
		}
	}

	for {
		// Coalescing must never hold records while the producer is
		// silent: flush the moment no further input is already buffered.
		if rbRecords > 0 && br.Buffered() == 0 {
			flushBatch()
		}
		if readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(readTimeout))
		}
		f, nbuf, err := transport.ReadFrame(br, buf)
		buf = nbuf
		switch {
		case err == nil:
		case err == io.EOF:
			return // clean disconnect
		case errors.Is(err, transport.ErrCorruptFrame):
			// Framing lost: skip garbage until the next frame boundary.
			if !skip(err) {
				return
			}
			if _, rerr := transport.Resync(br, resyncScanLimit); rerr != nil {
				if rerr != io.EOF {
					s.noteBadProducer(fmt.Errorf("relay: resync failed: %w", rerr))
				}
				return
			}
			continue
		default:
			// Peer gone mid-frame (reset, timeout, truncation).
			s.noteBadProducer(err)
			return
		}
		tr := s.tracer.Load()
		var arrival time.Time
		if tr != nil {
			arrival = time.Now()
		}
		body, err := f.Body()
		if err != nil {
			// Checksum mismatch: the frame was consumed whole, so the
			// stream is still aligned — just drop the frame.
			s.noteChecksumFailure()
			if tr != nil {
				// A discarded frame of a trace-carrying format loses its
				// relay span (and likely the whole message); account for
				// it rather than letting the trace thin out silently.  A
				// discarded batch loses every record it carried — the
				// count is estimated from the advertised payload size,
				// since the body cannot be trusted.
				if b := local.Lookup(f.FormatID); b != nil && b.traceOff >= 0 {
					switch f.BaseKind() {
					case transport.FrameData:
						tr.NoteLost()
					case transport.FrameBatch:
						tr.NoteLostN(max((len(f.Payload)-4)/b.size, 1))
					}
				}
			}
			if !skip(err) {
				return
			}
			continue
		}
		switch f.BaseKind() {
		case transport.FrameMeta:
			format, _, err := wire.DecodeMeta(body)
			if err != nil {
				if !skip(err) {
					return
				}
				continue
			}
			// Keep consumer frame order identical to arrival order: the
			// pending batch was received before this meta frame.
			flushBatch()
			relayID, added, fs, err := s.registerFormat(format)
			if err != nil {
				s.noteBadProducer(err)
				return
			}
			local.Bind(f.FormatID, &binding{
				relayID:  relayID,
				size:     format.Size,
				traceOff: wire.TraceFieldOffset(format),
				order:    format.Order,
				name:     format.Name,
				fstats:   fs,
			})
			if added {
				s.broadcastMeta(relayID)
			}
		case transport.FrameData, transport.FrameBatch:
			b := local.Lookup(f.FormatID)
			if b == nil {
				s.noteBadProducer(fmt.Errorf("relay: data frame for unknown format ID %d (data before meta)", f.FormatID))
				return
			}
			batch := f.BaseKind() == transport.FrameBatch
			if (!batch && len(body) != b.size) || (batch && (len(body) == 0 || len(body)%b.size != 0)) {
				// A record run that is not a positive multiple of its
				// format's size is corrupt even if its checksum matches
				// (or it carries none).
				if tr != nil && b.traceOff >= 0 {
					tr.NoteLostN(max(len(body)/b.size, 1))
				}
				if !skip(fmt.Errorf("relay: %d-byte payload, format is %d bytes/record", len(body), b.size)) {
					return
				}
				continue
			}
			traced := countTraced(tr, b, body)
			if rebatchMax > 0 {
				// Coalesce: verified bodies (singles and batches alike)
				// accumulate and leave as relay-originated batch frames.
				appendRecords(b, body, traced)
			} else {
				// Forward verbatim on a pooled shared payload.  The
				// payload keeps any checksum prefix — the checksum covers
				// the body only, so renumbering the header keeps it valid
				// end-to-end.
				forward(f.Kind, b.relayID, f.Payload, len(body)/b.size, traced, b.fstats)
			}
			noteSpans(tr, b, body, arrival)
		case transport.FrameSub:
			// On an uplink this is the upstream's identity reply (the
			// other half of the mesh handshake); on a plain producer
			// link FrameSub is a consumer-to-relay control frame and
			// just as much a protocol violation as any other kind.
			if u == nil {
				s.noteBadProducer(fmt.Errorf("relay: unexpected subscription frame from producer"))
				return
			}
			sub, err := transport.DecodeSubscription(body)
			if err != nil {
				if !skip(err) {
					return
				}
				continue
			}
			u.setPeer(sub.NodeID, sub.MeshAddr)
		default:
			// Format-server references would need a resolver here;
			// producers must use in-band meta with a relay.
			s.noteBadProducer(fmt.Errorf("relay: unexpected frame kind %d from producer", f.Kind))
			return
		}
	}
}

func (s *Server) noteResync() {
	s.stats.resyncs.Add(1)
	s.emitTrace("resync", "")
}

func (s *Server) noteChecksumFailure() {
	s.stats.checksumFailures.Add(1)
	s.emitTrace("checksum_failure", "")
}

func (s *Server) noteBadProducer(cause error) {
	s.stats.badProducers.Add(1)
	s.stats.errMu.Lock()
	s.stats.lastProducerError = cause.Error()
	s.stats.errMu.Unlock()
	s.emitTrace("producer_dropped", cause.Error())
}

// registerFormat adds a format to the relay space, recording its meta
// frame for replay and resolving which consumers' subscriptions cover
// the new ID.  It also returns the format's accounting bucket (shared
// by every relay ID carrying the name) for the caller's binding.
func (s *Server) registerFormat(f *wire.Format) (uint32, bool, *formatStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, added, err := s.formats.Register(f)
	if err != nil {
		return 0, false, nil, err
	}
	if added {
		s.metaBytes[id] = wire.EncodeMeta(f)
		s.metaOrder = append(s.metaOrder, id)
		s.names[id] = f.Name
		s.byName[f.Name] = append(s.byName[f.Name], id)
		// Subscriptions are by name; a just-learned ID may already be
		// wanted by consumers that subscribed before the format existed.
		for c := range s.consumers {
			if !c.all && c.sub.Matches(f.Name) {
				c.want[id] = true
			}
		}
	}
	return id, added, s.fstatsForLocked(f.Name), nil
}

// broadcastMeta sends a newly-registered format's meta to current
// consumers (late joiners get it from the replay in pumpConsumer).
func (s *Server) broadcastMeta(relayID uint32) {
	s.mu.Lock()
	f := s.metaFrame(relayID)
	s.mu.Unlock()
	s.broadcast(f, nil, 0, 0, nil)
}

// broadcast enqueues a frame for every consumer whose subscription
// covers it (meta frames go to everyone — format knowledge is cheap and
// a subscription can widen later).  owner, when non-nil, is the frame's
// pooled payload: broadcast takes one reference per enqueue attempt plus
// one of its own (released before returning), and the consumer queues
// release theirs however the frame leaves the queue, so the buffer
// recycles exactly when the last consumer is done with it — including
// the zero-consumer case.
//
// A full queue resolves by the consumer's policy: disconnect evicts the
// consumer (its queued frames still flush), drop-oldest evicts the
// oldest queued frame, block waits for space.  Blocking pushes happen
// outside the server lock, so one stalled consumer delays its producer's
// stream but never consumer registration, stats, or other control paths.
//
//pbio:hotpath noalloc=0 per-frame fan-out; the non-blocking path enqueues without allocating
func (s *Server) broadcast(f transport.Frame, owner *sharedPayload, recs, traced int, fstats *formatStats) {
	if owner != nil {
		// The broadcaster's own reference keeps the count positive until
		// every enqueue attempt has resolved.
		owner.refs.Add(1)
	}
	isData := f.BaseKind() == transport.FrameData || f.BaseKind() == transport.FrameBatch
	of := outFrame{f: f, owner: owner, recs: recs, traced: traced, fstats: fstats}

	s.mu.Lock()
	s.stats.frames.Add(1)
	if s.queuePolicy == PolicyBlock {
		// Snapshot the matched consumers and push outside the lock:
		// PolicyBlock pushes can wait indefinitely on a slow consumer,
		// and the lock must not wait with them.
		//pbio:alloc-ok PolicyBlock trades one snapshot slice per frame for never waiting under the server lock
		targets := make([]*consumer, 0, len(s.consumers))
		for c := range s.consumers {
			if isData && !c.wantsLocked(f.FormatID) {
				continue
			}
			targets = append(targets, c)
		}
		s.stats.forwardedBytes.Add(int64(len(f.Payload)) * int64(len(targets)))
		s.mu.Unlock()
		fstats.noteForward(recs, len(f.Payload), len(targets))
		var drop []*consumer
		for _, c := range targets {
			if owner != nil {
				owner.refs.Add(1)
			}
			if c.q.push(of) == pushOverflow {
				// Only possible if this consumer was registered under a
				// non-blocking policy before SetQueue changed it.
				//pbio:alloc-ok grows only when a consumer is being evicted, which ends its steady state anyway
				drop = append(drop, c)
			}
		}
		for _, c := range drop {
			s.removeConsumer(c, "queue overflow", true)
		}
		owner.release()
		return
	}
	// Non-blocking policies: push never waits, so the whole fan-out runs
	// under the lock with no per-broadcast allocation.
	sent := 0
	var drop []*consumer
	for c := range s.consumers {
		if isData && !c.wantsLocked(f.FormatID) {
			continue
		}
		sent++
		if owner != nil {
			owner.refs.Add(1)
		}
		if c.q.pushNoWait(of) == pushOverflow {
			//pbio:alloc-ok grows only when a consumer is being evicted, which ends its steady state anyway
			drop = append(drop, c)
		}
	}
	s.stats.forwardedBytes.Add(int64(len(f.Payload)) * int64(sent))
	fstats.noteForward(recs, len(f.Payload), sent)
	for _, c := range drop {
		delete(s.consumers, c)
		c.q.close()
		s.noteConsumerGone(c, true, "queue overflow")
	}
	s.mu.Unlock()
	if len(drop) > 0 {
		s.notifyUplinks()
	}
	owner.release()
}

// noteConsumerGone counts one consumer departure exactly once —
// policyDrop selects DroppedConsumers (the relay evicted it) versus
// Disconnects (the peer left or its writes failed).  Safe to call from
// racing paths; the consumer's counted flag arbitrates.
func (s *Server) noteConsumerGone(c *consumer, policyDrop bool, reason string) {
	if !c.counted.CompareAndSwap(false, true) {
		return
	}
	if policyDrop {
		s.stats.droppedConsumers.Add(1)
		s.emitTrace("consumer_dropped", reason)
		s.flight.Load().Emit(flightrec.KindPolicyDisconnect, reason, 0, 0, 0)
	} else {
		s.stats.disconnects.Add(1)
		s.emitTrace("consumer_disconnect", reason)
		s.flight.Load().Emit(flightrec.KindConsumerLeave, reason, 0, 0, 0)
	}
}

// removeConsumer unregisters c (if still registered) and closes its
// queue, counting the departure.  The pump keeps flushing whatever was
// queued before the close and then disconnects the socket.
func (s *Server) removeConsumer(c *consumer, reason string, policyDrop bool) {
	s.mu.Lock()
	registered := s.consumers[c]
	if registered {
		delete(s.consumers, c)
	}
	shuttingDown := s.closed
	s.mu.Unlock()
	c.q.close()
	if registered && !shuttingDown {
		s.noteConsumerGone(c, policyDrop, reason)
		s.notifyUplinks()
	}
}

// registerConsumer snapshots the known formats and registers the
// connection for broadcasts atomically, so no meta or data frame is
// missed or duplicated.  It runs on the accept loop (see ServeConsumers
// for why); ok is false when the relay is closed.
func (s *Server) registerConsumer(conn net.Conn) (c *consumer, replay []transport.Frame, wtimeout time.Duration, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return nil, nil, 0, false
	}
	c = &consumer{conn: conn, all: true, sub: transport.Subscription{All: true}}
	c.q = newFrameQueue(s.queueCap, s.queuePolicy, func(of outFrame) {
		s.stats.droppedFrames.Add(1)
		s.stats.droppedRecords.Add(int64(of.recs))
		of.fstats.noteDrop(of.recs)
		if of.traced > 0 {
			s.tracer.Load().NoteLostN(of.traced)
		}
		// One journal event per evicted frame: arg1 carries the records
		// lost, arg2 the traced records among them, so a journal sums to
		// exactly the crawler's drop accounting.  Emit never blocks or
		// re-enters the queue, which the onEvict contract requires.
		s.flight.Load().Emit(flightrec.KindQueueEvict, of.fstats.statName(), 0, int64(of.recs), int64(of.traced))
	})
	replay = make([]transport.Frame, 0, len(s.metaOrder))
	for _, id := range s.metaOrder {
		replay = append(replay, s.metaFrame(id))
	}
	s.stats.metaReplays.Add(int64(len(replay)))
	s.consumers[c] = true
	n := len(s.consumers)
	wtimeout = s.consumerTimeout
	s.mu.Unlock()
	s.flight.Load().Emit(flightrec.KindConsumerJoin, peerLabel(conn), 0, int64(n), 0)
	return c, replay, wtimeout, true
}

// peerLabel names a connection's remote end for the flight journal.
func peerLabel(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// pumpConsumer replays known formats, then streams queued frames until
// the peer goes away or the queue is closed under it (policy drop or
// server shutdown) — in the latter case it still flushes everything
// queued before the close.
func (s *Server) pumpConsumer(c *consumer, replay []transport.Frame, wtimeout time.Duration) {
	conn := c.conn

	defer func() {
		s.removeConsumer(c, "peer gone", false)
		conn.Close()
		// Drain so a concurrent broadcast never blocks on us, releasing
		// every queued frame's share of its pooled payload.
		c.q.drain()
	}()

	write := func(f transport.Frame) error {
		if wtimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(wtimeout))
		}
		return transport.WriteFrame(conn, f)
	}
	for _, f := range replay {
		if err := write(f); err != nil {
			return
		}
	}
	for {
		of, ok := c.q.pop()
		if !ok {
			return
		}
		err := write(of.f)
		of.owner.release()
		if err != nil {
			return
		}
	}
}

// readConsumerControl reads the consumer's direction of the link —
// subscription frames — until the connection dies.  Consumers that never
// write (the pre-subscription protocol) keep the read blocked until the
// pump closes the socket, which is what bounds this goroutine's life.
func (s *Server) readConsumerControl(c *consumer) {
	br := bufio.NewReaderSize(c.conn, 512)
	var buf []byte
	defer func() { bufpool.Put(buf) }()
	for {
		f, nbuf, err := transport.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			// EOF, peer gone, or garbage: either way the control channel
			// is over.  The data direction lives on until the pump fails.
			return
		}
		if f.BaseKind() != transport.FrameSub {
			continue // ignore unexpected-but-framed traffic
		}
		body, err := f.Body()
		if err != nil {
			continue // checksum mismatch: skip the frame, stay aligned
		}
		sub, err := transport.DecodeSubscription(body)
		if err != nil {
			continue
		}
		s.setSubscription(c, sub)
	}
}

// setSubscription applies a want-list to a consumer, resolving names to
// relay format IDs, and propagates the change to any auto-mode uplinks.
// A subscription carrying node identity marks the consumer as a
// downstream relay and triggers the other half of the mesh handshake:
// this relay's own identity, sent back once as a FrameSub riding the
// consumer's queue (so it never interleaves with a pump write).
func (s *Server) setSubscription(c *consumer, sub transport.Subscription) {
	sub = sub.Canonical()
	s.mu.Lock()
	if !s.consumers[c] {
		s.mu.Unlock()
		return
	}
	c.sub = sub
	c.all = sub.All
	if sub.All {
		c.want = nil
	} else {
		c.want = make(map[uint32]bool, len(sub.Names))
		for _, n := range sub.Names {
			for _, id := range s.byName[n] {
				c.want[id] = true
			}
		}
	}
	var reply *transport.Subscription
	if sub.NodeID != "" || sub.MeshAddr != "" {
		c.peerNodeID, c.peerMeshAddr = sub.NodeID, sub.MeshAddr
		if !c.identitySent && (s.nodeID != "" || s.meshAddr != "") {
			c.identitySent = true
			reply = &transport.Subscription{All: true, NodeID: s.nodeID, MeshAddr: s.meshAddr}
		}
	}
	s.stats.subUpdates.Add(1)
	s.mu.Unlock()
	if reply != nil {
		if enc, err := transport.EncodeSubscription(*reply); err == nil {
			// FrameSub is in the queue's never-evict class, so the reply
			// survives drop-oldest; if the queue is closed or overflows
			// the reply is simply lost along with the consumer.
			c.q.push(outFrame{f: transport.Frame{Kind: transport.FrameSub, Payload: enc}})
		}
	}
	s.emitTrace("subscription", "")
	s.notifyUplinks()
}

// SubscribedConsumers returns how many connected consumers have applied
// an explicit (non-all) subscription — the observable tests and callers
// poll to know a want-list has taken effect.
func (s *Server) SubscribedConsumers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.consumers {
		if !c.all {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the relay's throughput and error-accounting
// counters.  Counters are atomics, so taking a snapshot never contends
// with the broadcast hot path.
func (s *Server) Stats() Stats {
	s.stats.errMu.Lock()
	lastErr := s.stats.lastProducerError
	s.stats.errMu.Unlock()
	return Stats{
		Frames:              s.stats.frames.Load(),
		ForwardedBytes:      s.stats.forwardedBytes.Load(),
		BadProducers:        s.stats.badProducers.Load(),
		LastProducerError:   lastErr,
		DroppedConsumers:    s.stats.droppedConsumers.Load(),
		Disconnects:         s.stats.disconnects.Load(),
		QueueDroppedFrames:  s.stats.droppedFrames.Load(),
		QueueDroppedRecords: s.stats.droppedRecords.Load(),
		SubscriptionUpdates: s.stats.subUpdates.Load(),
		Resyncs:             s.stats.resyncs.Load(),
		ChecksumFailures:    s.stats.checksumFailures.Load(),
		MetaReplays:         s.stats.metaReplays.Load(),
	}
}

// Consumers returns the number of currently connected consumers.
func (s *Server) Consumers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.consumers)
}

// SetTelemetry exports the relay's counters on r as export-time-read
// metric functions — the live counters stay the single source of truth,
// nothing is double-counted — and routes relay trace events (resyncs,
// dropped peers, subscription changes) into r's trace ring.
func (s *Server) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	s.trace.Store(r.Trace())
	r.CounterFunc("pbio_relay_frames_total", "Frames broadcast to consumers.", s.stats.frames.Load)
	r.CounterFunc("pbio_relay_forwarded_bytes_total", "Payload bytes forwarded (payload size x subscribed consumers).", s.stats.forwardedBytes.Load)
	r.CounterFunc("pbio_relay_bad_producers_total", "Producers dropped for protocol violations or corruption.", s.stats.badProducers.Load)
	r.CounterFunc("pbio_relay_dropped_consumers_total", "Consumers evicted for queue overflow (disconnect policy) or write timeout.", s.stats.droppedConsumers.Load)
	r.CounterFunc("pbio_relay_consumer_disconnects_total", "Consumers that departed on their own (peer gone, write failure).", s.stats.disconnects.Load)
	r.CounterFunc("pbio_relay_queue_dropped_frames_total", "Frames evicted from consumer queues by the drop-oldest policy.", s.stats.droppedFrames.Load)
	r.CounterFunc("pbio_relay_queue_dropped_records_total", "Records carried by frames evicted by the drop-oldest policy.", s.stats.droppedRecords.Load)
	r.CounterFunc("pbio_relay_subscription_updates_total", "Subscription want-lists applied to consumers.", s.stats.subUpdates.Load)
	r.CounterFunc("pbio_relay_resyncs_total", "Corrupt producer frames survived by skip-and-resync.", s.stats.resyncs.Load)
	r.CounterFunc("pbio_relay_checksum_failures_total", "Producer frames whose CRC32-C did not match the body.", s.stats.checksumFailures.Load)
	r.CounterFunc("pbio_relay_meta_replays_total", "Meta frames replayed to late-joining consumers.", s.stats.metaReplays.Load)
	r.GaugeFunc("pbio_relay_formats", "Distinct formats the relay has seen.", func() int64 { return int64(s.Formats()) })
	r.GaugeFunc("pbio_relay_consumers", "Currently connected consumers.", func() int64 { return int64(s.Consumers()) })
	r.GaugeFunc("pbio_relay_subscribed_consumers", "Consumers with an explicit (non-all) subscription.", func() int64 { return int64(s.SubscribedConsumers()) })
	// One queue walk serves all three queue gauges: families export in
	// registration order, so the depth-sum gauge (first) runs the walk
	// and stashes the max and stalled counts for the two after it.  A
	// caller reading the later gauges in isolation sees the values from
	// the previous full scrape — fine for monitoring, and half the lock
	// traffic of walking the consumer set once per gauge.
	r.GaugeFunc("pbio_relay_queue_depth_frames", "Sum of per-consumer queue depths, in frames.", func() int64 {
		sum, maxDepth, stalled := s.queueStats()
		s.scrapeMaxDepth.Store(maxDepth)
		s.scrapeStalled.Store(stalled)
		return sum
	})
	r.GaugeFunc("pbio_relay_queue_depth_max_frames", "Deepest per-consumer queue, in frames.", s.scrapeMaxDepth.Load)
	r.GaugeFunc("pbio_relay_stalled_consumers", "Consumers whose queue holds frames but has not drained one within the stall window.", s.scrapeStalled.Load)

	// Per-format accounting rides labeled export-time-read families; the
	// values live in the relay's own atomics (resolved per format at
	// meta-registration), the registry reads them at scrape time.
	// Formats registered before telemetry attached are back-filled here;
	// later ones bind at creation.  Cardinality is bounded by
	// maxFormatStats (see mesh.go).
	s.mu.Lock()
	s.fvecs.frames = r.CounterFuncVec("pbio_relay_format_forwarded_frames_total", "Frames broadcast, by format name.", "format")
	s.fvecs.records = r.CounterFuncVec("pbio_relay_format_forwarded_records_total", "Records broadcast, by format name.", "format")
	s.fvecs.bytes = r.CounterFuncVec("pbio_relay_format_forwarded_bytes_total", "Payload bytes forwarded (payload size x consumers enqueued), by format name.", "format")
	s.fvecs.droppedFrames = r.CounterFuncVec("pbio_relay_format_dropped_frames_total", "Frames evicted from consumer queues by the drop-oldest policy, by format name.", "format")
	s.fvecs.droppedRecords = r.CounterFuncVec("pbio_relay_format_dropped_records_total", "Records evicted from consumer queues by the drop-oldest policy, by format name.", "format")
	s.fvecs.queued = r.GaugeFuncVec("pbio_relay_format_queued_frames", "Frames currently held across consumer queues, by format name.", "format")
	for _, fs := range s.fstats {
		s.registerFormatTelemetryLocked(fs)
	}
	if s.fstatsOverflow != nil {
		s.registerFormatTelemetryLocked(s.fstatsOverflow)
	}
	s.mu.Unlock()

	r.Handle("/debug/mesh", s.MeshHandler())
}

// Formats returns the number of distinct formats the relay has seen.
func (s *Server) Formats() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.formats.Len()
}

// downstreamUnion returns the union of every connected consumer's
// subscription — what this relay needs from upstream.  Any
// all-subscriber makes the union All; so does having no consumers at
// all, the conservative "nothing known yet" default: a hop must never
// filter away data that a consumer still mid-registration would have
// wanted, so filtering only engages once explicit subscriptions exist.
// (The converse race is inherent to pub/sub and accepted: a consumer
// that *widens* a hop's union can miss frames broadcast while the wider
// union propagates upstream — subscribe before producing, exactly as
// flat-relay consumers connect before producing.)
func (s *Server) downstreamUnion() transport.Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.consumers) == 0 {
		return transport.Subscription{All: true}
	}
	names := make(map[string]bool)
	for c := range s.consumers {
		if c.all {
			return transport.Subscription{All: true}
		}
		for _, n := range c.sub.Names {
			names[n] = true
		}
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return transport.Subscription{Names: out}
}

// notifyUplinks kicks every auto-subscription uplink to re-derive and —
// if it changed — re-send the downstream union.  Non-blocking: the kick
// channel holds one pending update; coalescing bursts is exactly right.
func (s *Server) notifyUplinks() {
	s.mu.Lock()
	for u := range s.uplinks {
		if u.static == nil {
			select {
			case u.kick <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
}

// Close drops all consumers and refuses new ones.  Producer goroutines
// exit when their connections close (the caller closes the listeners);
// uplink connections are closed here, which unwinds RunUplink.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.consumers {
		delete(s.consumers, c)
		c.q.close()
		// Unblock any pumpConsumer goroutine stuck mid-write so
		// shutdown never waits on a dead peer.
		c.conn.Close()
	}
	for u := range s.uplinks {
		u.conn.Close()
	}
}

// Serve runs both listeners and blocks until either fails.
func (s *Server) Serve(producers, consumers net.Listener) error {
	errc := make(chan error, 2)
	go func() { errc <- s.ServeProducers(producers) }()
	go func() { errc <- s.ServeConsumers(consumers) }()
	err := <-errc
	return fmt.Errorf("relay: %w", err)
}
