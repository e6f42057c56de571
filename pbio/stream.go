package pbio

import (
	"fmt"
	"io"
	"time"

	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/native"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Writer transmits records over a byte stream.  Sending is NDR: the
// record's native bytes go on the wire unmodified; the format's
// meta-information is sent automatically before its first record.  A
// Writer is not safe for concurrent use.
type Writer struct {
	ctx *Context
	tw  *transport.Writer

	// traceBuf is the scratch image for sampled sends (see writeTraced):
	// the record's bytes plus the trailing trace field, reused across
	// writes so tracing steady-state allocates nothing.
	traceBuf []byte

	// Batching bookkeeping (see SetBatching).  When coalescing is on,
	// every record passes through the transport's pending batch; writeSeq
	// numbers them and flushedSeq advances as the flush hook reports
	// batches leaving, which is how traced records learn the wall-clock
	// window they spent buffered (pendingTraced, drained in order).
	batching      bool
	writeSeq      uint64
	flushedSeq    uint64
	pendingTraced []pendingTrace
}

// pendingTrace remembers a sampled record sitting in the write batch.
type pendingTrace struct {
	seq     uint64
	trace   uint64
	parent  uint64
	fmtName string
}

// NewWriter returns a Writer over w.  The constructor body must stay
// within the inlining budget: callers that create short-lived writers
// rely on the escape analysis that inlining enables, so the optional
// format-server/telemetry wiring lives in equipWriter.
func (c *Context) NewWriter(w io.Writer) *Writer {
	tw := transport.NewWriter(w)
	c.equipWriter(tw)
	return &Writer{ctx: c, tw: tw}
}

func (c *Context) equipWriter(tw *transport.Writer) {
	if c.registrarFn != nil {
		tw.SetRegistrar(c.registrarFn)
	}
	if c.tmet != nil {
		tw.SetMetrics(c.tmet)
	}
}

// EnableChecksums makes the Writer emit a CRC32-C over every frame body.
// Receivers verify and strip the checksum transparently; readers that
// predate checksums reject the frames as corrupt, so only enable this
// when all consumers understand it.
func (w *Writer) EnableChecksums() { w.tw.SetChecksums(true) }

// SetTimeout bounds each record write when the underlying stream is a
// net.Conn (or anything else with SetWriteDeadline).  Zero means no
// bound.
func (w *Writer) SetTimeout(d time.Duration) { w.tw.SetTimeout(d) }

// SetBatching enables small-record coalescing: consecutive same-format
// records are buffered and go out as one batch frame when the buffer
// reaches maxBytes, the format changes, the oldest buffered record is
// older than maxDelay at the next write, or Flush is called.  Buffered
// records are invisible to the receiver until flushed — call Flush
// before waiting on a response.  maxBytes ≤ 0 turns coalescing off
// (flushing anything pending).
func (w *Writer) SetBatching(maxBytes int, maxDelay time.Duration) error {
	if err := w.tw.SetBatching(maxBytes, maxDelay); err != nil {
		return err
	}
	w.batching = maxBytes > 0
	if w.batching && w.ctx.tracer != nil {
		w.tw.SetFlushHook(w.noteBatchFlush)
	}
	return nil
}

// Flush emits any records held back by batching.  A no-op when nothing
// is pending.
func (w *Writer) Flush() error { return w.tw.Flush() }

// Write transmits one record.
//
//pbio:hotpath noalloc=0 steady-state send path; pinned by pbio/alloc_test.go (TestAllocsSteadyStateWrite, TestAllocsBatchedWrite)
func (w *Writer) Write(rec *Record) error {
	if rec.fmt.ctx != w.ctx {
		return fmt.Errorf("pbio: record's format belongs to a different context")
	}
	if tr := w.ctx.tracer; tr != nil && tr.Sample() {
		if twf, off, err := rec.fmt.tracedFormat(); err == nil {
			return w.writeTraced(rec, tr, twf, off)
		}
		// The format cannot be extended; send untraced rather than fail a
		// write that would have succeeded without tracing.
	}
	return w.send(rec.fmt, rec.fmt.wf, rec.rec.Buf)
}

// send puts one record image of f on the wire under layout wf (f's own,
// or its trace-extended variant) and keeps the books every sent record
// is in: the batching sequence number and the per-format counter.
func (w *Writer) send(f *Format, wf *wire.Format, image []byte) error {
	if err := w.tw.WriteRecord(wf, image); err != nil {
		return err
	}
	if w.batching {
		w.writeSeq++
	}
	f.met.sent.Inc()
	return nil
}

// WriteBatch transmits a run of same-format records as a single batch
// frame, bypassing the coalescing copy: the records' native images go
// out in one vectored write.  Records buffered by SetBatching are
// flushed first, preserving order.  Batched sends are never sampled for
// tracing — the per-record trace field would break the fixed-stride
// layout batch frames rely on.
func (w *Writer) WriteBatch(recs []*Record) error {
	if len(recs) == 0 {
		return nil
	}
	f := recs[0].fmt
	if f.ctx != w.ctx {
		return fmt.Errorf("pbio: record's format belongs to a different context")
	}
	bufs := make([][]byte, len(recs))
	for i, rec := range recs {
		if rec.fmt != f {
			return fmt.Errorf("pbio: batch mixes formats %q and %q", f.Name(), rec.fmt.Name())
		}
		bufs[i] = rec.rec.Buf
	}
	if err := w.tw.WriteBatch(f.wf, bufs); err != nil {
		return err
	}
	f.met.sent.Add(int64(len(recs)))
	return nil
}

// Reader receives records from a byte stream.  A Reader is not safe for
// concurrent use.
//
// Close releases the reader's pooled receive buffer; messages, views and
// anything else aliasing it are invalid afterwards.  Closing is optional
// (an unclosed reader's buffer is simply garbage-collected) but keeps
// buffer churn off short-lived streams.
type Reader struct {
	ctx *Context
	tr  transport.Reader // embedded by value: one allocation per Reader, total

	// cur is the reusable message Read returns.  A Message is only valid
	// until the next Read (its data aliases the receive buffer), so one
	// struct serves the reader's lifetime and the steady-state read path
	// allocates nothing.
	cur Message

	// state is what the reader has resolved about each wire format of its
	// stream, indexed by transport.Slot ordinal: however many formats
	// interleave, a record finds it with an index and a pointer compare.
	state []formatState
}

// formatState is one wire format's resolved state: one entry per kind of
// question, keyed on the expected format it was answered for and
// replaced when another is asked about.  The wire side needs no key —
// the transport never re-points an ordinal within a stream.
type formatState struct {
	convNF    *wire.Format  // what prog (compiled engine) or plan (Interpreted) converts
	prog      *dcg.Program  // into; the context's pair table is consulted only on a
	plan      *convert.Plan // pair's first sight
	viewNF    *wire.Format  // what same, wire.SameLayout's verdict, was computed against
	same      bool
	traceSeen bool // traceOff is resolved: the trace field's offset, or -1 for none
	traceOff  int
}

// NewReader returns a Reader over r.  Like NewWriter, the body stays
// within the inlining budget; optional wiring lives in equipReader.
func (c *Context) NewReader(r io.Reader) *Reader {
	rd := &Reader{ctx: c}
	rd.tr.Reset(r)
	c.equipReader(&rd.tr)
	return rd
}

func (c *Context) equipReader(tr *transport.Reader) {
	tr.SetMetaCache(c.metaCache)
	if c.resolverFn != nil {
		tr.SetResolver(c.resolverFn)
	}
	if c.tmet != nil {
		tr.SetMetrics(c.tmet)
	}
	if c.tracer != nil {
		// Arrival stamps anchor the wire-phase span; only tracing readers
		// pay for the clock read.
		tr.SetArrivalStamps(true)
	}
}

// SetTimeout bounds each message read when the underlying stream is a
// net.Conn (or anything else with SetReadDeadline).  Zero means no
// bound.
func (r *Reader) SetTimeout(d time.Duration) { r.tr.SetTimeout(d) }

// Close returns the reader's pooled receive buffer to the buffer pool;
// subsequent reads fail and previously returned messages (including
// zero-copy views) are invalid.  It never touches the underlying stream.
func (r *Reader) Close() error { return r.tr.Close() }

// Read returns the next message.  It returns io.EOF at a clean end of
// stream.
//
// The returned Message is owned by the Reader and reused by the next
// Read call — the same lifetime its data already had (it aliases the
// receive buffer).  Decode into an owned Record (or struct) to keep a
// record longer.
//
//pbio:hotpath noalloc=0 steady-state receive path; pinned by pbio/alloc_test.go (TestAllocsHomogeneousView, TestAllocsBatchedView, TestAllocsDCGDecode)
func (r *Reader) Read() (*Message, error) {
	msg := &r.cur
	msg.ctx, msg.r = r.ctx, r
	msg.tc, msg.traced = wire.TraceContext{}, false
	if err := r.tr.ReadMessageInto(&msg.msg); err != nil {
		return nil, err
	}
	r.ctx.met.recordsRecv.Inc()
	if tr := r.ctx.tracer; tr != nil {
		r.noteArrival(msg, tr)
	}
	return msg, nil
}

// Message is one received record: the sender's native bytes plus the
// sender's format description.  The underlying data aliases the Reader's
// receive buffer, and the Message itself is reused by the Reader: both
// are valid until the next Read call, and the record View returns until
// the next Read or the next View on that reader.  Decode into an owned
// Record (or struct) to keep it longer.
type Message struct {
	ctx *Context
	r   *Reader // per-format state lives on the reader; nil in tests that fake messages
	msg transport.Message

	// view is the reusable record View returns — like Reader.cur and
	// RecordBatch.cur, one struct serves the reader's lifetime (the
	// Message is the reader's), so viewing allocates nothing.
	view Record

	// Wire-carried trace context (see trace.go).  traced is set only when
	// the sender sampled this record and this context has tracing enabled.
	tc     wire.TraceContext
	traced bool
}

// FormatName returns the sender's format name.
func (m *Message) FormatName() string { return m.msg.Format.Name }

// WireSize returns the size in bytes of the record as transmitted (the
// sender's native size).
func (m *Message) WireSize() int { return m.msg.Format.Size }

// Batched reports whether the record arrived inside a batch frame.
func (m *Message) Batched() bool { return m.msg.Batched }

// Fields describes the incoming format — PBIO's reflection support:
// receivers can inspect messages they have no a-priori knowledge of and
// decide at run time how to process them.
func (m *Message) Fields() []FieldInfo { return fieldInfos(m.msg.Format) }

// DescribeFormat renders the incoming format's full layout.
func (m *Message) DescribeFormat() string { return m.msg.Format.String() }

// SameLayout reports whether the incoming record's layout is identical to
// the expected format's — the homogeneous fast path, where the record is
// usable straight out of the receive buffer.
func (m *Message) SameLayout(f *Format) bool { return m.sameLayout(f.wf) }

// state returns the reader's state for the message's wire format, nil
// without a reader.  Ordinals count formats bound, which bounds the slice.
//
//pbio:hotpath noalloc=0 per-record slot lookup, an index; pinned by pbio/alloc_test.go TestAllocsRoundRobinDecode
func (m *Message) state() *formatState {
	r := m.r
	if r == nil {
		return nil
	}
	for int(m.msg.Ord) >= len(r.state) {
		r.state = append(r.state, formatState{})
	}
	return &r.state[m.msg.Ord]
}

// sameLayout is wire.SameLayout(m.msg.Format, nf), compared once per
// (wire format, expected layout) and remembered on the format's state.
func (m *Message) sameLayout(nf *wire.Format) bool {
	st := m.state()
	if st != nil && st.viewNF == nf {
		return st.same
	}
	same := wire.SameLayout(m.msg.Format, nf)
	if st != nil {
		st.viewNF, st.same = nf, same
	}
	return same
}

// Decode converts the message into an owned record of the expected
// format.  Fields are matched by name: incoming fields the expected
// format lacks are ignored (type extension), expected fields the message
// lacks are zero.
func (m *Message) Decode(expected *Format) (*Record, error) {
	out := expected.NewRecord()
	if err := m.DecodeInto(expected, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto converts the message into an existing record of the expected
// format, reusing its storage.
func (m *Message) DecodeInto(expected *Format, out *Record) error {
	if out.fmt != expected {
		return fmt.Errorf("pbio: record is of format %q, not %q", out.fmt.Name(), expected.Name())
	}
	return m.convert(expected, out.rec.Buf, m.msg.Data, 1)
}

// View returns the message decoded as a record of the expected format
// without copying, when the layouts are identical (the zero-copy
// homogeneous path).  The returned record aliases the receive buffer and
// is owned by the Reader, which reuses it: it is valid only until the
// next Read or the next View on that reader.  ok is false when
// conversion would be required; use Decode then.  A refused View leaves
// a previously returned record untouched.
//
//pbio:hotpath noalloc=0 homogeneous receive path: two pointer compares and a record header store; pinned by pbio/alloc_test.go (TestAllocsHomogeneousView, TestAllocsBatchedView)
func (m *Message) View(expected *Format) (rec *Record, ok bool, err error) {
	nf := expected.wf
	if m.traced {
		// A sampled record travels under the trace-extended format, so it
		// is tested against the expected format's own trace-extended
		// variant: when those agree the base record is a clean prefix of
		// the wire bytes (appending a field never moves earlier offsets).
		if nf, _, err = expected.tracedFormat(); err != nil {
			return nil, false, nil
		}
	}
	if !m.sameLayout(nf) {
		return nil, false, nil
	}
	expected.met.dec[pathZeroCopy].Inc()
	if !m.traced {
		return m.viewAs(expected), true, nil
	}
	t0 := time.Now()
	rec = m.viewAs(expected)
	m.recSpan(tracectx.PhaseView, t0, time.Now(), pathZeroCopy)
	return rec, true, nil
}

// viewAs points the reusable record at the message's leading
// expected.wf.Size bytes.  Callers have established that the layouts
// agree, so the data is at least that long.
func (m *Message) viewAs(expected *Format) *Record {
	m.view.fmt = expected
	m.view.rec = native.Record{Format: expected.wf, Buf: m.msg.Data[:expected.wf.Size]}
	return &m.view
}

// resolve returns what converts the message's wire format into nf: the
// compiled program, or under Interpreted the plan alone (the interpreted
// baseline computes its field table once per wire format, as pre-DCG
// PBIO did, and never pays for code generation).  The answer is the one
// filed on the format's slot, or — on the pair's first sight, and always
// for a reader-less message — the context's pair table's.  Every decode,
// traced or not, single or batched, resolves here.
//
//pbio:hotpath noalloc=0 per-record slot hit, a pointer compare; pinned by pbio/alloc_test.go (TestAllocsDCGDecode, TestAllocsBatchDecode, TestAllocsRoundRobinDecode)
func (m *Message) resolve(nf *wire.Format) (prog *dcg.Program, plan *convert.Plan, err error) {
	st := m.state()
	if st != nil && st.convNF == nf {
		return st.prog, st.plan, nil
	}
	if m.ctx.mode == Interpreted {
		plan, err = m.ctx.cache.Plan(m.msg.Format, nf)
	} else {
		// A hit until the table's OnBuild hook says this lookup compiled
		// (Context.noteBuild).
		m.ctx.met.cacheHits.Inc()
		prog, err = m.ctx.cache.Get(m.msg.Format, nf)
	}
	if err == nil && st != nil {
		st.convNF, st.prog, st.plan = nf, prog, plan
	}
	return prog, plan, err
}

// convert is the one decode body: it converts the n records in src (the
// message's own bytes, or the rest of its batch frame) into dst with the
// context's engine.  Only an observed decode — a sampled message, or a
// context with telemetry — reads the clock, and the path counter, the
// decode histogram and the match/convert spans are then reported from
// the same three timestamps, so they agree by construction.
//
//pbio:hotpath noalloc=0 the body under DecodeInto and DecodeBatch; pinned by pbio/alloc_test.go (TestAllocsDCGDecode, TestAllocsBatchDecode, TestAllocsRoundRobinDecode)
func (m *Message) convert(expected *Format, dst, src []byte, n int) error {
	observed := m.traced || m.ctx.met.enabled
	var t0, t1 time.Time
	if observed {
		t0 = time.Now()
	}
	prog, plan, err := m.resolve(expected.wf)
	if err != nil {
		return err
	}
	if observed {
		t1 = time.Now()
	}
	path := pathDCG
	switch {
	case prog == nil:
		// The interpreted engine has no fused form: it converts a batch
		// record by record, which keeps the baseline honest.
		path = pathInterp
		it := convert.NewInterp(plan)
		if n == 1 {
			err = it.Convert(dst, src)
			break
		}
		ws, ns := m.msg.Format.Size, expected.wf.Size
		for i := 0; i < n && err == nil; i++ {
			err = it.Convert(dst[i*ns:(i+1)*ns], src[i*ws:(i+1)*ws])
		}
	case n == 1:
		err = prog.Convert(dst, src)
	default:
		path = pathDCGBatch
		_, err = prog.ConvertBatch(dst, src)
	}
	if err != nil || !observed {
		return err
	}
	t2 := time.Now()
	expected.met.dec[path].Add(int64(n))
	m.ctx.met.decodeNanos[path].Observe(t2.Sub(t1).Nanoseconds())
	if m.traced {
		// match is the slot hit, or on first sight the table lookup and
		// whatever it built; convert is the execution.
		m.recSpan(tracectx.PhaseMatch, t0, t1, path)
		m.recSpan(tracectx.PhaseConv, t1, t2, path)
	}
	return nil
}
