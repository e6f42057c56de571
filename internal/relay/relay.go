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
// into one format space (formats.go), in which identical layouts share
// an ID whichever producer sent them, and replays the space's meta
// frames, in first-seen order, to late-joining consumers before their
// first data frame.
//
// The relay is four parts over transport's frame codec (nothing here
// parses or builds a frame header): an ingest per producer connection
// (ingest.go), the format space, the fan-out (fanout.go, queue.go) and
// the uplink with the mesh's view of it all (uplink.go, mesh.go); DESIGN
// §11 says what each owns.
package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
)

// Server is a relay instance.
type Server struct {
	mu        sync.Mutex
	formats   formatSpace // relay-wide format IDs, meta for replay, name index
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

	// tracer, when set (SetTracing), records one relay-phase span per
	// forwarded frame that carries wire trace context.  The relay never
	// rewrites the frame — it reads the trailing trace field out of the
	// record bytes it is forwarding verbatim.
	tracer atomic.Pointer[tracectx.Tracer]

	// flight, when set (SetFlight), journals the relay's discrete
	// events: consumer join/leave, policy drops, queue evictions, stall
	// transitions, uplink attachment, resyncs, dropped producers,
	// subscription changes.  Atomic like tracer; a nil recorder is a
	// valid no-op sink.
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

// consumerQueue is the default per-consumer queue bound (SetQueue).
const consumerQueue = 256

// NewServer returns an empty relay.
func NewServer() *Server {
	return &Server{
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

// ServeProducers accepts producer connections until the listener closes.
func (s *Server) ServeProducers(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveProducer(conn, nil)
	}
}

// AddProducerConn ingests frames arriving on conn as one producer, in a
// background goroutine — the programmatic equivalent of a ServeProducers
// accept, for in-process harnesses (net.Pipe meshes) and tests.
func (s *Server) AddProducerConn(conn net.Conn) {
	go s.serveProducer(conn, nil)
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
// nothing is double-counted — and mounts /debug/mesh on r.
func (s *Server) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
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
	return s.formats.len()
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
