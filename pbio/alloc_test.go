package pbio

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"unsafe"

	"repro/internal/flightrec"
)

// Allocation pins for the four wire-path hot loops.  These are hard
// regression fences: the numbers encode the zero/near-zero-alloc
// guarantees the pooled transport and the per-format state provide, and
// a change that re-introduces per-record allocation fails here before it
// shows up in benchmarks.  (AllocsPerRun disables parallelism, so the
// values are exact, not statistical.)

// allocFields is the benchmark record shape: ~10 KB of doubles.
var allocFields = []FieldSpec{
	F("node", Int), F("timestamp", Double), Array("values", Double, 1245),
}

// TestReaderSizeClass: a Reader is allocated per stream, so its size is
// setup_s and peak_rss_mb on every workload.  448 bytes is the allocator
// size class it has lived in since PR 13; a field added to it or to the
// transport.Reader and FrameReader it embeds must not cross that.
func TestReaderSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Reader{}); got > 448 {
		t.Errorf("pbio.Reader is %d bytes, above the 448-byte size class", got)
	}
}

func TestAllocsSteadyStateWrite(t *testing.T) {
	ctx := ctxFor(t, "sparc-v8")
	f, err := ctx.Register("mixed", allocFields...)
	if err != nil {
		t.Fatal(err)
	}
	w := ctx.NewWriter(io.Discard)
	rec := f.NewRecord()
	if err := w.Write(rec); err != nil { // meta + warm-up outside the measurement
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("steady-state Write allocates %.1f per record, want 0", got)
	}
}

func TestAllocsBatchedWrite(t *testing.T) {
	ctx := ctxFor(t, "sparc-v8")
	f, err := ctx.Register("tick", F("seq", Int), F("v", Double))
	if err != nil {
		t.Fatal(err)
	}
	w := ctx.NewWriter(io.Discard)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	rec := f.NewRecord()
	// Warm up: meta frame, batch buffer growth to steady-state capacity.
	for i := 0; i < 1<<16/f.Size()+2; i++ {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(500, func() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("batched Write allocates %.1f per record, want 0 (coalescing copy reuses the pending buffer)", got)
	}
}

// TestAllocsRecordAccessors pins the by-name accessors at zero: the
// standing benchmark's pattern — four Sets stamp a record, two Gets
// check one — resolves every name through the format's cursor table
// (wire.Format.Cursor), which is the only thing a fresh format's first
// access may allocate.
func TestAllocsRecordAccessors(t *testing.T) {
	for _, arch := range []string{"sparc-v8", "x86-64"} {
		// Eleven formats, so that ten measured runs each make the first
		// access to a fresh one.
		ctx := ctxFor(t, arch)
		recs := make([]*Record, 11)
		for i := range recs {
			f, err := ctx.Register(fmt.Sprintf("mixed%d", i), benchMixedFields...)
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = f.NewRecord()
		}
		seq := int64(0)
		pattern := func(rec *Record) {
			seq++
			rec.MustSetInt("iter", 0, seq)
			rec.MustSetInt("flags", 0, seq*7)
			rec.MustSetFloat("timestamp", 0, float64(seq)*0.5)
			rec.MustSetFloat("values", int(seq%7), float64(seq))
			if v, err := rec.Int("iter", 0); err != nil || v != seq {
				t.Fatalf("iter = %d, %v", v, err)
			}
			if v, err := rec.Float("values", int(seq%7)); err != nil || v != float64(seq) {
				t.Fatalf("values = %v, %v", v, err)
			}
		}
		next := 0
		first := testing.AllocsPerRun(len(recs)-1, func() { pattern(recs[next]); next++ })
		if first > 3 {
			t.Errorf("%s: first use of a format allocates %.1f, want at most its table (3)", arch, first)
		}
		if got := testing.AllocsPerRun(500, func() { pattern(recs[0]) }); got > 0 {
			t.Errorf("%s: four Sets + two Gets allocate %.1f per record, want 0", arch, got)
		}
	}
}

// streamReader feeds the same encoded stream repeatedly, so a pin test
// can read an unbounded run of records through one Reader.  Replays
// restart at loop: 0 repeats the whole stream, meta frames included; the
// offset where the meta-carrying prefix ends repeats data frames only.
type streamReader struct {
	raw  []byte
	off  int
	loop int
}

func (s *streamReader) Read(p []byte) (int, error) {
	if s.off == len(s.raw) {
		s.off = s.loop
	}
	n := copy(p, s.raw[s.off:])
	s.off += n
	return n, nil
}

func TestAllocsHomogeneousView(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("mixed", allocFields...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := ctx.NewWriter(&stream)
	// One meta frame, then a long run of records: the steady state is
	// data frames only.
	for i := 0; i < 4; i++ {
		if err := w.Write(f.NewRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}

	r := ctx.NewReader(&streamReader{raw: stream.Bytes()})
	defer r.Close()
	if _, err := r.Read(); err != nil { // consume meta + first record
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		rec, ok, err := m.View(f)
		if err != nil || !ok {
			t.Fatalf("View: %v %v", ok, err)
		}
		_ = rec
	})
	if got > 0 {
		t.Errorf("homogeneous view costs %.1f allocs per record, want 0 (reader-owned message and record, layout verdict kept on the format's slot)", got)
	}
}

// TestAllocsBatchedView pins what an application consuming homogeneous
// batch frames writes — Read + View per record — at zero allocations.
// One measured run is a whole pass over the stream (the meta frame again,
// then four 64-record batch frames), so a single allocation anywhere in
// it, frame boundaries included, fails the pin.
func TestAllocsBatchedView(t *testing.T) {
	ctx := ctxFor(t, "x86-64")
	f, err := ctx.Register("tick", benchTickFields()...)
	if err != nil {
		t.Fatal(err)
	}
	const frames, batch = 4, 64
	recs := make([]*Record, batch)
	for i := range recs {
		recs[i] = f.NewRecord()
	}
	var stream bytes.Buffer
	w := ctx.NewWriter(&stream)
	for i := 0; i < frames; i++ {
		if err := w.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
	}

	r := ctx.NewReader(&streamReader{raw: stream.Bytes()})
	defer r.Close()
	pass := func() {
		for i := 0; i < frames*batch; i++ {
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := m.View(f); err != nil || !ok {
				t.Fatalf("View: %v %v", ok, err)
			}
		}
	}
	pass() // warm-up: receive buffer growth, first meta decode, layout verdict
	if got := testing.AllocsPerRun(20, pass); got > 0 {
		t.Errorf("batched Read+View costs %.0f allocs per %d records, want 0", got, frames*batch)
	}
}

func TestAllocsDCGDecode(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	sf, err := sctx.Register("mixed", allocFields...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	for i := 0; i < 4; i++ {
		if err := w.Write(sf.NewRecord()); err != nil {
			t.Fatal(err)
		}
	}

	rctx := ctxFor(t, "x86")
	rf, err := rctx.Register("mixed", allocFields...)
	if err != nil {
		t.Fatal(err)
	}
	out := rf.NewRecord()
	r := rctx.NewReader(&streamReader{raw: stream.Bytes()})
	defer r.Close()
	// First read decodes meta, builds the DCG program and files it on the slot.
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DecodeInto(rf, out); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DecodeInto(rf, out); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("steady-state DCG decode costs %.1f allocs per record, want 0 (program on the format's slot, caller-owned output)", got)
	}
}

// TestAllocsRoundRobinDecode pins Read + DecodeInto at zero allocations
// when no record is of the format of the one before it: 32 formats
// round-robin, measured after the round that binds them.  The pins above
// cover one format; this one covers the per-format slot lookup
// (transport.FormatTable.Lookup, Message.state).
func TestAllocsRoundRobinDecode(t *testing.T) {
	const n = 32
	src, rctx, expected := roundRobinStream(t, n, 8)
	r := rctx.NewReader(src)
	defer r.Close()
	outs := make([]*Record, n)
	for i, rf := range expected {
		outs[i] = rf.NewRecord()
	}
	round := func() {
		for i, rf := range expected {
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.DecodeInto(rf, outs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // meta frames, slots, programs, receive buffer
	if got := testing.AllocsPerRun(20, round); got > 0 {
		t.Errorf("round-robin Read+DecodeInto costs %.0f allocs per %d records, want 0", got, n)
	}
}

// TestAllocsBatchDecode pins the fused batch decode path at zero
// allocations per record: one Read plus one DecodeBatch consumes a whole
// 64-record heterogeneous batch frame, reusing the RecordBatch buffer,
// the reader's message, the program on the format's slot and the pooled
// receive buffer.
func TestAllocsBatchDecode(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	sf, err := sctx.Register("tick", F("seq", Int), F("v", Double))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	const batch = 64
	recs := make([]*Record, batch)
	for i := range recs {
		recs[i] = sf.NewRecord()
		recs[i].MustSetInt("seq", 0, int64(i))
	}
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}

	rctx := ctxFor(t, "x86")
	rf, err := rctx.Register("tick", F("seq", Int), F("v", Double))
	if err != nil {
		t.Fatal(err)
	}
	rb := rf.NewRecordBatch()
	r := rctx.NewReader(&streamReader{raw: stream.Bytes()})
	defer r.Close()
	// Warm up: meta decode, batch-program compile, RecordBatch
	// buffer growth to frame size.
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.DecodeBatch(rf, rb); err != nil || n != batch {
		t.Fatalf("warm-up DecodeBatch = %d, %v", n, err)
	}
	got := testing.AllocsPerRun(200, func() {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.DecodeBatch(rf, rb)
		if err != nil {
			t.Fatal(err)
		}
		if n != batch {
			t.Fatalf("DecodeBatch = %d, want %d", n, batch)
		}
	})
	if got > 0 {
		t.Errorf("steady-state batch decode costs %.1f allocs per frame (%d records), want 0", got, batch)
	}
}

// TestAllocsFlightEmit pins the flight recorder's own hot path: Emit is
// a mutex hold plus fixed-size byte stores into a preallocated slab, so
// it must allocate nothing — that is what makes it legal inside evict
// callbacks and connection handlers.
func TestAllocsFlightEmit(t *testing.T) {
	rec := flightrec.New("alloc-test", 64)
	got := testing.AllocsPerRun(500, func() {
		rec.Emit(flightrec.KindQueueEvict, "tick", 0xabc, 3, 1)
	})
	if got > 0 {
		t.Errorf("Emit allocates %.1f per event, want 0", got)
	}
}

// TestAllocsSteadyStateWriteWithFlight re-runs the steady-state write
// pin with a flight recorder attached to the context: instrumentation
// must not buy events with per-record allocations on the wire path.
func TestAllocsSteadyStateWriteWithFlight(t *testing.T) {
	rec := flightrec.New("alloc-test", 64)
	ctx := ctxFor(t, "sparc-v8", WithFlightRecorder(rec))
	f, err := ctx.Register("mixed", allocFields...)
	if err != nil {
		t.Fatal(err)
	}
	w := ctx.NewWriter(io.Discard)
	r := f.NewRecord()
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("steady-state Write with flight recorder allocates %.1f per record, want 0", got)
	}
	if rec.Seq() == 0 {
		t.Error("context with a flight recorder journaled no events (expected MetaRegister at least)")
	}
}
