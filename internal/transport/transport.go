// Package transport frames PBIO messages over a byte stream and carries
// format meta-information in-band: the first record of each format is
// preceded by a meta message binding a small format ID to the sender's
// full format description.  This plays the role of PBIO's format server
// without a third party — receivers learn every format they need from the
// stream itself, which is what lets components "join ongoing
// communications" with no a-priori knowledge.
package transport

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/wire"
)

// MetaCache deduplicates decoded format descriptions across the streams
// of one process.  Every reader that receives the same meta bytes gets
// the same *wire.Format pointer back, which (a) drops the per-stream
// decode+validate cost to a map probe, and (b) makes pointer identity
// meaningful across streams, so conversion caches keyed on the format
// hit without fingerprinting.  Safe for concurrent use; share one per
// process (pbio.Context owns one).
type MetaCache struct {
	mu     sync.Mutex
	byMeta map[string]*wire.Format
}

// NewMetaCache returns an empty cache.
func NewMetaCache() *MetaCache {
	return &MetaCache{byMeta: make(map[string]*wire.Format)}
}

// Decode returns the format described by the raw meta bytes, decoding
// and validating only on first sight of those bytes.  The cache-hit path
// does not allocate (Go map lookups with a string(bytes) key are
// conversion-free).
func (c *MetaCache) Decode(meta []byte) (*wire.Format, error) {
	c.mu.Lock()
	f := c.byMeta[string(meta)]
	c.mu.Unlock()
	if f != nil {
		return f, nil
	}
	f, _, err := wire.DecodeMeta(meta)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev := c.byMeta[string(meta)]; prev != nil {
		f = prev // another stream decoded it first; converge on one pointer
	} else {
		c.byMeta[string(meta)] = f
	}
	c.mu.Unlock()
	return f, nil
}

// Writer sends records over a stream.  It is not safe for concurrent use.
type Writer struct {
	fw FrameWriter

	// ids holds every format whose meta this stream has carried, by
	// pointer; byPrint makes a second pointer of an already-sent layout
	// share its ID.  lastFmt/lastID memoise ensureFormat's last answer;
	// the maps only ever grow, so the memo never needs invalidating.
	ids     map[*wire.Format]uint32
	byPrint map[string]uint32 // fingerprint -> ID
	lastFmt *wire.Format
	lastID  uint32

	meta []byte // reused meta encoding buffer

	// Batching state (SetBatching).  Records are coalesced into batch
	// until a flush condition fires; batchN counts them and batchStart
	// is when the oldest was buffered (stamped only when age-based
	// flushing or a flush hook needs it).
	batchMax   int
	batchDelay time.Duration
	batch      []byte
	batchN     int
	batchID    uint32
	batchStart time.Time
	onFlush    func(records, payloadBytes int, start, end time.Time)

	// sums, when true, prefixes every payload with a CRC32-C of the body
	// and sets FrameFlagSum in the kind byte.
	sums bool

	// timeout, when nonzero, bounds each WriteRecord with a write
	// deadline (only effective when w is a net.Conn or similar).
	timeout time.Duration

	// registrar, when set, switches the writer to format-server mode:
	// instead of full in-band meta, the first record of each format is
	// preceded by an 8-byte global format ID obtained from the registrar
	// (see internal/fmtserver).
	registrar func(*wire.Format) (uint64, error)

	// m is nil until SetMetrics; every hot-path use is guarded by one
	// nil check (see the Reader field of the same name).
	m *Metrics
}

// SetMetrics attaches a telemetry metric set (nil restores the no-op
// default).
func (t *Writer) SetMetrics(m *Metrics) { t.m = m }

// SetRegistrar switches the writer to format-server mode.  Must be called
// before the first WriteRecord.
func (t *Writer) SetRegistrar(fn func(*wire.Format) (uint64, error)) { t.registrar = fn }

// SetChecksums toggles per-frame payload checksums (CRC32-C).  Off by
// default: on a trusted stream NDR's wire cost stays exactly header +
// native record.  On, each frame costs 4 extra bytes and one CRC pass,
// and corruption anywhere on the path is detected rather than delivered.
func (t *Writer) SetChecksums(on bool) { t.sums = on }

// SetTimeout bounds each WriteRecord call with a write deadline of d from
// its start.  It has effect only when the underlying stream supports
// write deadlines (net.Conn does); zero disables.
func (t *Writer) SetTimeout(d time.Duration) { t.timeout = d }

// SetBatching turns on write coalescing: WriteRecord copies records into
// a pending buffer instead of emitting a frame each, and the buffer goes
// out as one FrameBatch when it reaches maxBytes, when the format
// changes, when the oldest buffered record is older than maxDelay at the
// next write (maxDelay ≤ 0 disables the age check), or on an explicit
// Flush.  A pending run of exactly one record is emitted as an ordinary
// data frame, so batching never changes the wire format of sparse
// traffic.  Buffered records are not visible to the receiver until
// flushed — callers must Flush (or Close, for wrappers that do) before
// waiting on a response.  maxBytes ≤ 0 disables coalescing and flushes
// anything pending.
func (t *Writer) SetBatching(maxBytes int, maxDelay time.Duration) error {
	if maxBytes > maxPayload {
		maxBytes = maxPayload
	}
	if maxBytes <= 0 {
		err := t.Flush()
		t.batchMax, t.batchDelay = 0, 0
		return err
	}
	t.batchMax, t.batchDelay = maxBytes, maxDelay
	return nil
}

// SetFlushHook registers fn to run after every coalesced-batch flush
// with the record count, payload bytes, and the wall-clock span the
// records spent buffered.  The tracing layer uses it to attribute
// batching delay; nil disables.  Setting a hook makes every coalescing
// WriteRecord read the clock once.
func (t *Writer) SetFlushHook(fn func(records, payloadBytes int, start, end time.Time)) {
	t.onFlush = fn
}

// armWrite applies the write deadline, if any.
func (t *Writer) armWrite() {
	if t.timeout > 0 {
		if dl, ok := t.fw.w.(writeDeadliner); ok {
			dl.SetWriteDeadline(time.Now().Add(t.timeout))
		}
	}
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		fw:      FrameWriter{w: w},
		ids:     make(map[*wire.Format]uint32),
		byPrint: make(map[string]uint32),
	}
}

// ensureFormat returns f's stream-local format ID, validating f and
// transmitting its meta-information on first sight.  IDs count from 1 in
// first-sent order (0 is "no format"); a format whose layout this stream
// already carries shares that layout's ID and sends nothing.
func (t *Writer) ensureFormat(f *wire.Format) (uint32, error) {
	if f == t.lastFmt {
		return t.lastID, nil
	}
	id, known := t.ids[f]
	if !known {
		if err := f.Validate(); err != nil {
			return 0, err
		}
		fp := f.Fingerprint()
		if id, known = t.byPrint[fp]; !known {
			id = uint32(len(t.byPrint)) + 1
			if err := t.sendMeta(f, id); err != nil {
				return 0, err
			}
			t.byPrint[fp] = id
		}
		t.ids[f] = id
	}
	t.lastFmt, t.lastID = f, id
	return id, nil
}

// sendMeta transmits f's meta-information (or, with a registrar, its
// global reference) under stream-local ID id.
func (t *Writer) sendMeta(f *wire.Format, id uint32) error {
	// Frame order is delivery order: anything buffered goes out before
	// the new format's meta.
	if err := t.flushPending(); err != nil {
		return err
	}
	if t.registrar != nil {
		gid, err := t.registrar(f)
		if err != nil {
			return fmt.Errorf("transport: registering format %q: %w", f.Name, err)
		}
		var ref [8]byte
		wire.PutBeUint64(ref[:], gid)
		return t.emit(FrameMetaRef, id, "meta ref", ref[:])
	}
	t.meta = wire.AppendMeta(t.meta[:0], f)
	if len(t.meta) > maxMetaPayload {
		return fmt.Errorf("transport: format %q meta is %d bytes, exceeds bound %d", f.Name, len(t.meta), maxMetaPayload)
	}
	return t.emit(FrameMeta, id, "meta", t.meta)
}

// WriteRecord transmits one record: data must be the record's native
// image, exactly f.Size bytes.  The format's meta-information is sent
// automatically before its first record.  This is the entire sender-side
// cost of NDR: no encoding, no copying — the native bytes are handed to
// the stream as-is.  (With SetBatching the record is copied once into
// the pending batch; that copy is the price of amortizing the frame
// header and syscall over a run of small records.)
//
//pbio:hotpath noalloc=0 steady-state send; pinned by pbio/alloc_test.go TestAllocsSteadyStateWrite
func (t *Writer) WriteRecord(f *wire.Format, data []byte) error {
	if len(data) != f.Size {
		return fmt.Errorf("transport: record %d bytes, format %q is %d", len(data), f.Name, f.Size)
	}
	t.armWrite()
	id, err := t.ensureFormat(f)
	if err != nil {
		return err
	}
	if t.batchMax > 0 {
		return t.coalesce(id, data)
	}
	return t.emit(FrameData, id, "data", data)
}

// coalesce appends the record to the pending batch, flushing first on a
// format switch or when the record would not fit, and after on size or
// age.
//
//pbio:hotpath noalloc=0 per-record batching step; t.batch reaches steady capacity and the append stops growing (pbio/alloc_test.go TestAllocsBatchedWrite)
func (t *Writer) coalesce(id uint32, data []byte) error {
	if t.batchN > 0 && (id != t.batchID || len(t.batch)+len(data) > t.batchMax) {
		if err := t.flushPending(); err != nil {
			return err
		}
	}
	if t.batchN == 0 {
		t.batchID = id
		if t.batchDelay > 0 || t.onFlush != nil {
			t.batchStart = time.Now()
		}
	}
	t.batch = append(t.batch, data...)
	t.batchN++
	if len(t.batch) >= t.batchMax {
		return t.flushPending()
	}
	if t.batchDelay > 0 && time.Since(t.batchStart) >= t.batchDelay {
		return t.flushPending()
	}
	return nil
}

// Flush emits any records held by the coalescing buffer.  A no-op when
// nothing is pending (or batching is off), so wrappers can call it
// unconditionally at sync points.
func (t *Writer) Flush() error {
	if t.batchN == 0 {
		return nil
	}
	t.armWrite()
	return t.flushPending()
}

// WriteMeta transmits f's meta-information now, without a record, if
// this stream has not carried it yet.  WriteRecord does this
// automatically; WriteMeta exists for streams that must be
// self-describing even when empty (a flight journal with no events is
// still a decodable journal).
func (t *Writer) WriteMeta(f *wire.Format) error {
	t.armWrite()
	_, err := t.ensureFormat(f)
	return err
}

// flushPending writes the coalescing buffer out as one frame: FrameBatch
// for a run of two or more records, a plain data frame for one.
//
//pbio:hotpath noalloc=0 batch flush; reuses t.batch across frames
func (t *Writer) flushPending() error {
	n := t.batchN
	if n == 0 {
		return nil
	}
	bytes := len(t.batch)
	start := t.batchStart
	kind, what := byte(FrameData), "data"
	if n > 1 {
		kind, what = byte(FrameBatch), "batch"
	}
	err := t.emit(kind, t.batchID, what, t.batch)
	t.batch = t.batch[:0]
	t.batchN = 0
	if err != nil {
		return err
	}
	if m := t.m; m != nil && n > 1 {
		m.BatchFramesWritten.Inc()
		m.BatchRecordsWritten.Add(int64(n))
		m.BatchBytesWritten.Add(int64(bytes))
	}
	if t.onFlush != nil {
		t.onFlush(n, bytes, start, time.Now())
	}
	return nil
}

// WriteBatch transmits a run of same-format records as one FrameBatch
// without copying them: header, optional checksum prefix, and every
// record go out as a single vectored write.  Callers that already hold a
// run of records (a relay draining a queue, a simulation emitting a
// timestep) skip the coalescing copy entirely.  Any coalesced records
// pending from WriteRecord are flushed first, preserving order.
//
//pbio:hotpath noalloc=0 vectored batch send; records go out in place
func (t *Writer) WriteBatch(f *wire.Format, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for _, rec := range recs {
		if len(rec) != f.Size {
			return fmt.Errorf("transport: batch record %d bytes, format %q is %d", len(rec), f.Name, f.Size)
		}
		total += len(rec)
	}
	if total > maxPayload {
		return fmt.Errorf("transport: batch payload %d exceeds frame bound %d", total, maxPayload)
	}
	t.armWrite()
	id, err := t.ensureFormat(f)
	if err != nil {
		return err
	}
	if err := t.flushPending(); err != nil {
		return err
	}
	if len(recs) == 1 {
		return t.emit(FrameData, id, "data", recs[0])
	}
	if err := t.emit(FrameBatch, id, "batch", recs...); err != nil {
		return err
	}
	if m := t.m; m != nil {
		m.BatchFramesWritten.Inc()
		m.BatchRecordsWritten.Add(int64(len(recs)))
		m.BatchBytesWritten.Add(int64(total))
	}
	return nil
}

// emit sends one frame — body is its payload, in one piece or many,
// checksummed when the writer is — and accounts for it.
//
//pbio:hotpath noalloc=0 every outgoing frame passes through here
func (t *Writer) emit(kind byte, id uint32, what string, body ...[]byte) error {
	n, err := t.fw.Write(kind, id, t.sums, body...)
	if err != nil {
		t.m.noteIOError(err, "write "+what)
		return err
	}
	if m := t.m; m != nil {
		m.FramesWritten.Inc()
		m.BytesWritten.Add(n)
		if kind == FrameMeta || kind == FrameMetaRef {
			m.MetaWritten.Inc()
		}
	}
	return nil
}

// WireSize returns the number of bytes WriteRecord moves for a record of
// format f, excluding the one-time meta message: header plus the native
// record image.
func WireSize(f *wire.Format) int { return frameHeaderSize + f.Size }

// Slot is what a Reader knows about one format ID of its stream: the
// format bound to it and its ordinal in bind order (0, 1, 2, … whatever
// IDs the peer chose), by which a layer above indexes its own per-format
// state.  A Reader never replaces a binding (an identical rebind keeps
// the first slot, another is ErrProtocol), so that state holds until Reset.
type Slot struct {
	Format *wire.Format
	Ord    uint32
}

// Message is one received record: the sender's format description and the
// record bytes in the sender's native layout.
//
// Data aliases the Reader's internal receive buffer and is valid only
// until the next ReadMessage call that reads from the stream — exactly
// the lifetime of a receive buffer.  (Messages delivered from one batch
// frame share the buffer; each stays valid until the batch is exhausted
// and the next frame is read.)  Receivers that convert (or use) the
// record before reading the next message never copy; others must.
type Message struct {
	Slot // the format the record arrived under
	Data []byte

	// WireBytes is the total bytes consumed from the stream to deliver
	// the message — the data frame plus any meta frames that preceded
	// it, headers included.  Records delivered from a batch frame carry
	// the whole frame's bytes on the first record and zero on the rest,
	// so per-stream sums stay exact.
	WireBytes int

	// Batched reports that the record arrived inside a FrameBatch.
	Batched bool

	// Arrival is the wall-clock time the data frame's last payload byte
	// was read.  Stamped only when the reader has arrival stamping
	// enabled (SetArrivalStamps — the tracing path's wire-phase anchor);
	// zero otherwise, so untraced hot paths never touch the clock.
	// Records from one batch frame share the frame's arrival time.
	Arrival time.Time
}

// Reader receives records from a stream.  It is not safe for concurrent
// use.
type Reader struct {
	fr      FrameReader       // the stream, its header and pooled receive buffer
	formats FormatTable[Slot] // the peer's format IDs; zero value is ready

	// stampArrivals, when set (SetArrivalStamps), timestamps each
	// delivered Message with its arrival wall-clock time.  Off by
	// default so the untraced read path never calls time.Now.
	stampArrivals bool

	// closed marks the reader's pooled buffer as surrendered; further
	// reads fail rather than touch recycled memory.
	closed bool

	// Batch-frame iteration state: the current batch frame's whole
	// payload (aliases fr's buffer), the offset of the first un-delivered
	// record, and the slot and arrival the frame was read under.  The
	// un-delivered tail is batch[batchOff:]; keeping the full payload
	// lets TakeBatch hand a batch consumer every remaining record in
	// one contiguous slice — m.Data is capacity-capped at one record
	// and cannot be re-extended over the tail — and storing an offset
	// instead of a second slice keeps the Reader a size class smaller.
	batch      []byte
	pendingFmt *wire.Format
	batchOff   int32 // frame payloads are capped at maxPayload (1<<28)
	pendingOrd uint32

	pendingArrival time.Time

	// timeout, when nonzero, bounds each frame read with a read deadline
	// (only effective when r is a net.Conn or similar).
	timeout time.Duration

	// resolver, when set, resolves global format IDs arriving in
	// meta-reference messages (format-server mode).
	resolver func(uint64) (*wire.Format, error)

	// metaCache, when set, deduplicates meta decoding across streams.
	metaCache *MetaCache

	// m is nil until SetMetrics; every hot-path use is guarded by one
	// nil check.  (Leaving the default out of the constructor keeps
	// NewReader — and pbio's wrapper around it — within the inlining
	// budget, which is what lets short-lived readers stay on the
	// caller's stack.)
	m *Metrics
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{fr: FrameReader{r: r}}
}

// Reset re-points the reader at a new stream, forgetting learned formats
// and any partially-delivered batch, and clears Close.  Configuration
// (metrics, resolver, meta cache, timeout) and the pooled receive buffer
// carry over.  It exists so a Reader embedded by value can be re-armed
// without allocating.
func (t *Reader) Reset(r io.Reader) {
	t.fr.r = r
	t.formats = FormatTable[Slot]{}
	t.batch, t.batchOff, t.pendingFmt, t.pendingOrd = nil, 0, nil, 0
	t.pendingArrival = time.Time{}
	t.closed = false
}

// Close returns the reader's pooled receive buffer to the buffer pool
// and marks the reader closed; subsequent reads fail.  Every Message
// (and anything aliasing one — zero-copy views included) obtained from
// this reader is invalid after Close: its bytes may be recycled into
// another stream's receive buffer.  Close never touches the underlying
// stream; closing that is the caller's business.  Close is idempotent.
func (t *Reader) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	t.fr.Release()
	return nil
}

// SetMetrics attaches a telemetry metric set (nil restores the no-op
// default).
func (t *Reader) SetMetrics(m *Metrics) { t.m = m }

// SetResolver equips the reader to resolve global format IDs via a format
// server (see internal/fmtserver).  Streams written in format-server mode
// cannot be read without one.
func (t *Reader) SetResolver(fn func(uint64) (*wire.Format, error)) { t.resolver = fn }

// SetMetaCache shares a process-wide meta-decode cache with this reader:
// formats whose meta bytes were already seen on any stream cost a map
// probe instead of a decode, and identical formats resolve to one
// *wire.Format pointer across streams.
func (t *Reader) SetMetaCache(c *MetaCache) { t.metaCache = c }

// SetTimeout bounds each frame read with a read deadline of d from its
// start, so a slow or dead peer surfaces as an error instead of a hung
// goroutine.  It has effect only when the underlying stream supports read
// deadlines (net.Conn does); zero disables.
func (t *Reader) SetTimeout(d time.Duration) { t.timeout = d }

// SetArrivalStamps toggles per-message arrival timestamps (Message.
// Arrival).  The tracing layer enables this to anchor the wire phase;
// it is off by default so untraced readers never pay the clock read.
func (t *Reader) SetArrivalStamps(on bool) { t.stampArrivals = on }

// armRead applies the read deadline, if any.
func (t *Reader) armRead() {
	if t.timeout > 0 {
		if dl, ok := t.fr.r.(readDeadliner); ok {
			dl.SetReadDeadline(time.Now().Add(t.timeout))
		}
	}
}

// ReadMessage returns the next data message, transparently consuming any
// meta messages that precede it.  It allocates one Message per call;
// steady-state hot paths use ReadMessageInto.
func (t *Reader) ReadMessage() (*Message, error) {
	m := new(Message)
	if err := t.ReadMessageInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// nextBatched delivers the next record of the current batch frame into m.
func (t *Reader) nextBatched(m *Message, wireBytes int) {
	f := t.pendingFmt
	rec := t.batch[t.batchOff:]
	*m = Message{
		Slot:      Slot{Format: f, Ord: t.pendingOrd},
		Data:      rec[:f.Size:f.Size],
		WireBytes: wireBytes,
		Batched:   true,
		Arrival:   t.pendingArrival,
	}
	t.batchOff += int32(f.Size)
	if int(t.batchOff) == len(t.batch) {
		t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	}
}

// TakeBatch hands the caller the rest of the current batch frame in one
// contiguous slice: the record already delivered as m plus every record
// not yet delivered, back to back at the frame's fixed stride.  It
// returns nil when m is not the current record of an in-progress batch
// frame — not batched, the frame's last record, or a stale message —
// and the caller then handles m singly.  After a non-nil return the
// frame is consumed: the next ReadMessageInto reads the following frame.
// Like m.Data, the returned slice aliases the receive buffer and is
// valid only until the next read.
//
// This is the transport half of the fused decode path: one TakeBatch
// plus one dcg.Program.ConvertBatch replaces per-record message
// iteration and per-record program dispatch.
func (t *Reader) TakeBatch(m *Message) []byte {
	f := t.pendingFmt
	if !m.Batched || f == nil || f != m.Format || t.batch == nil {
		return nil
	}
	start := int(t.batchOff) - f.Size
	if start < 0 || len(m.Data) != f.Size || &t.batch[start] != &m.Data[0] {
		return nil
	}
	all := t.batch[start:]
	t.batch, t.batchOff, t.pendingFmt = nil, 0, nil
	t.pendingArrival = time.Time{}
	return all
}

// ReadMessageInto fills m with the next data message, transparently
// consuming any meta messages that precede it and iterating batch frames
// one record at a time.  All fields of m are overwritten.  It performs
// no allocation in steady state (formats known, buffer warm).
func (t *Reader) ReadMessageInto(m *Message) error {
	if int(t.batchOff) < len(t.batch) {
		t.nextBatched(m, 0)
		return nil
	}
	if t.closed {
		return fmt.Errorf("transport: read on closed reader: %w", ErrProtocol)
	}
	wireBytes := 0
	for {
		t.armRead()
		f, err := t.fr.Next()
		if err != nil {
			if err != io.EOF {
				t.m.noteIOError(err, "read frame")
			}
			return err
		}
		kind, id, n := f.BaseKind(), f.FormatID, len(f.Payload)
		wireBytes += frameHeaderSize + n
		if m := t.m; m != nil {
			m.FramesRead.Inc()
			m.BytesRead.Add(int64(frameHeaderSize + n))
			if kind != FrameData && kind != FrameBatch {
				m.MetaRead.Inc()
			}
		}
		// Verify and strip the checksum prefix, if the frame carries one.
		body := f.Payload
		if f.Checksummed() {
			if body, err = f.Body(); err != nil {
				if m := t.m; m != nil {
					m.noteChecksumFailure(fmt.Sprintf("format %d kind %d", id, kind))
				}
				return err
			}
			n = len(body)
		}
		switch kind {
		case FrameMeta:
			var f *wire.Format
			var err error
			if t.metaCache != nil {
				f, err = t.metaCache.Decode(body)
			} else {
				f, _, err = wire.DecodeMeta(body)
			}
			if err != nil {
				return fmt.Errorf("transport: decode meta: %w: %w", err, ErrCorruptFrame)
			}
			// DecodeMeta (and therefore the cache) validates.
			if err := t.bind(id, f); err != nil {
				return err
			}
			if m := t.m; m != nil && m.Flight != nil {
				m.Flight.FormatLearned(f.Name)
			}
		case FrameMetaRef:
			if t.resolver == nil {
				return fmt.Errorf("transport: stream uses a format server but no resolver is configured: %w", ErrProtocol)
			}
			if n != 8 {
				return fmt.Errorf("transport: meta reference payload %d bytes, want 8: %w", n, ErrCorruptFrame)
			}
			gid := wire.BeUint64(body)
			f, err := t.resolver(gid)
			if err != nil {
				return fmt.Errorf("transport: resolving format %#x: %w: %w", gid, err, ErrFormatUnknown)
			}
			if err := f.Validate(); err != nil {
				return fmt.Errorf("%w: %w", err, ErrProtocol)
			}
			if err := t.bind(id, f); err != nil {
				return err
			}
		case FrameData:
			s := t.formats.Lookup(id)
			if s == nil {
				return fmt.Errorf("transport: data for unknown format ID %d (data before meta): %w", id, ErrProtocol)
			}
			if f := s.Format; n != f.Size {
				return fmt.Errorf("transport: record %d bytes, format %q is %d: %w", n, f.Name, f.Size, ErrCorruptFrame)
			}
			*m = Message{Slot: *s, Data: body, WireBytes: wireBytes}
			if t.stampArrivals {
				m.Arrival = time.Now()
			}
			return nil
		case FrameBatch:
			s := t.formats.Lookup(id)
			if s == nil {
				return fmt.Errorf("transport: batch for unknown format ID %d (data before meta): %w", id, ErrProtocol)
			}
			f := s.Format
			if n == 0 || n%f.Size != 0 {
				return fmt.Errorf("transport: batch payload %d bytes not a positive multiple of format %q size %d: %w", n, f.Name, f.Size, ErrCorruptFrame)
			}
			if m := t.m; m != nil {
				m.BatchFramesRead.Inc()
				m.BatchRecordsRead.Add(int64(n / f.Size))
				m.BatchBytesRead.Add(int64(n))
			}
			t.batch, t.batchOff = body, 0
			t.pendingFmt, t.pendingOrd = f, s.Ord
			if t.stampArrivals {
				t.pendingArrival = time.Now()
			} else {
				t.pendingArrival = time.Time{}
			}
			t.nextBatched(m, wireBytes)
			return nil
		default:
			return fmt.Errorf("transport: unknown message kind %d: %w", kind, ErrProtocol)
		}
	}
}

// bind files f under the peer's id.  An identical rebind (replayed meta)
// keeps the first slot; a different one, and ID 0, is ErrProtocol.
func (t *Reader) bind(id uint32, f *wire.Format) error {
	if id == 0 {
		return fmt.Errorf("transport: cannot bind format ID 0: %w", ErrProtocol)
	}
	if s := t.formats.Lookup(id); s != nil {
		if s.Format == f || wire.SameLayout(s.Format, f) {
			return nil
		}
		return fmt.Errorf("transport: format ID %d already bound to %q with a different layout: %w", id, s.Format.Name, ErrProtocol)
	}
	t.formats.Bind(id, &Slot{Format: f, Ord: uint32(t.formats.Len())})
	return nil
}
